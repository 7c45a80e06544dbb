package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// On-disk layout, one directory per job under Config.Dir:
//
//	<dir>/<jobid>/scenario.json    the submitted scenario (SaveScenario form)
//	<dir>/<jobid>/job.json         id + options + submission time
//	<dir>/<jobid>/state.json       lifecycle state + terminal error
//	<dir>/<jobid>/checkpoint.json  latest durable solver frontier (cadence)
//	<dir>/<jobid>/deployment.json  the final deployment (SaveDeployment form)
//
// Every file is written through internal/atomicfile (write, fsync, rename,
// directory fsync), so after any crash — SIGKILL or power loss — each file
// is either absent or a complete earlier version. The recovery invariant:
// deployment.json present ⇒ the job is done and the bytes are final;
// otherwise checkpoint.json (when present) resumes the job to a
// byte-identical deployment; otherwise the job restarts from scratch. A
// state.json left at "running" by a crash rescans as queued.

const (
	scenarioFile   = "scenario.json"
	jobFile        = "job.json"
	stateFile      = "state.json"
	checkpointFile = "checkpoint.json"
	deploymentFile = "deployment.json"
)

// jobRecord is the job.json schema.
type jobRecord struct {
	ID      string     `json:"id"`
	Options JobOptions `json:"options"`
	Created string     `json:"created"`
}

// stateRecord is the state.json schema.
type stateRecord struct {
	State   JobState `json:"state"`
	Error   string   `json:"error,omitempty"`
	Updated string   `json:"updated"`
}

// writeJSON persists v as indented JSON, atomically and durably.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, append(data, '\n'), 0o644)
}

// readStrictJSON loads a server-written JSON file, rejecting unknown fields:
// a field this version cannot interpret means the file was edited or written
// by an incompatible version, and dropping it silently could resurrect a job
// under the wrong options.
func readStrictJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// jobDir returns the directory of a job id.
func (s *Server) jobDir(id string) string { return filepath.Join(s.cfg.Dir, id) }

// persistNew writes a freshly-submitted job to disk: directory, scenario,
// record, and queued state. Called before the job is visible to workers, so
// a crash between any two writes leaves at worst a job directory without a
// state file, which rescan treats as queued.
func (s *Server) persistNew(j *Job) error {
	dir := s.jobDir(j.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := uavnet.SaveScenario(filepath.Join(dir, scenarioFile), j.Scenario); err != nil {
		return err
	}
	rec := jobRecord{ID: j.ID, Options: j.Options, Created: s.now()}
	if err := writeJSON(filepath.Join(dir, jobFile), rec); err != nil {
		return err
	}
	return s.persistState(j)
}

// persistState records the job's current lifecycle state durably.
func (s *Server) persistState(j *Job) error {
	state, errMsg := j.State()
	rec := stateRecord{State: state, Error: errMsg, Updated: s.now()}
	return writeJSON(filepath.Join(s.jobDir(j.ID), stateFile), rec)
}

// now renders the submission/update timestamp.
//
//uavlint:allow timenow -- operational metadata on job records; never feeds a solver decision
func (s *Server) now() string { return time.Now().UTC().Format(time.RFC3339) }

// saveDeployment persists the final deployment and returns the bytes it
// wrote, which the job then serves from memory. The bytes are exactly
// uavnet.SaveDeployment's, so the result endpoint serves files that compare
// byte-identical (cmp) against a solo `uavdeploy -out` run — the property
// the server-smoke CI job asserts end to end.
func (s *Server) saveDeployment(j *Job, dep *uavnet.Deployment) ([]byte, error) {
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	return data, atomicfile.WriteFile(filepath.Join(s.jobDir(j.ID), deploymentFile), data, 0o644)
}

// checkpointPath returns a job's checkpoint file.
func (s *Server) checkpointPath(j *Job) string {
	return filepath.Join(s.jobDir(j.ID), checkpointFile)
}

// rescan loads every job directory under cfg.Dir, rebuilding the in-memory
// job table after a restart. Jobs that were queued or running when the
// previous process died come back queued (their checkpoint carries the
// durable frontier); done, failed, and cancelled jobs come back in their
// terminal state. The returned slice lists the jobs to re-enqueue, in
// directory order.
//
//uavlint:allow lockguard -- runs inside New before the Server or any Job is published; no other goroutine can observe the fields yet
func (s *Server) rescan() ([]*Job, error) {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var requeue []*Job
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.Dir, ent.Name())
		var rec jobRecord
		if err := readStrictJSON(filepath.Join(dir, jobFile), &rec); err != nil {
			return nil, fmt.Errorf("server: job directory %s is unreadable: %w", dir, err)
		}
		if rec.ID != ent.Name() {
			return nil, fmt.Errorf("server: job directory %s records id %q", dir, rec.ID)
		}
		if err := rec.Options.Validate(); err != nil {
			return nil, fmt.Errorf("server: job %s has invalid options: %w", rec.ID, err)
		}
		sc, err := uavnet.LoadScenario(filepath.Join(dir, scenarioFile))
		if err != nil {
			return nil, fmt.Errorf("server: job %s: %w", rec.ID, err)
		}
		j := &Job{ID: rec.ID, Scenario: sc, Options: rec.Options, dir: dir, state: JobQueued}
		var st stateRecord
		switch err := readStrictJSON(filepath.Join(dir, stateFile), &st); {
		case os.IsNotExist(err):
			// Crash between persistNew's writes: treat as queued.
		case err != nil:
			return nil, fmt.Errorf("server: job %s: %w", rec.ID, err)
		default:
			j.state = st.State
			j.errMsg = st.Error
		}
		// A finished job must actually have its deployment on disk; a crash
		// cannot produce state "done" without one (the deployment is written
		// first), but a hand-edited directory could.
		if j.state == JobDone {
			data, err := os.ReadFile(filepath.Join(dir, deploymentFile))
			if err != nil {
				return nil, fmt.Errorf("server: job %s is marked done but has no deployment: %w", rec.ID, err)
			}
			j.result = data
		}
		// running (crash) and queued both re-enter the queue.
		if j.state == JobRunning || j.state == JobQueued {
			j.state = JobQueued
			requeue = append(requeue, j)
		}
		s.jobs[j.ID] = j
	}
	return requeue, nil
}
