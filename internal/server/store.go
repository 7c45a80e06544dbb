package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// On-disk layout, one directory per job under Config.Dir:
//
//	<dir>/<jobid>/scenario.json    the submitted scenario (SaveScenario form)
//	<dir>/<jobid>/job.json         id + options + submission time; written last, it commits the job
//	<dir>/<jobid>/checkpoint.json  latest durable solver frontier (cadence)
//	<dir>/<jobid>/deployment.json  the final deployment (SaveDeployment form); present ⇒ done
//	<dir>/<jobid>/state.json       failed or cancelled, or queued again after either
//
// The directory is created by atomicfile.Mkdir and every file written by
// Server.write (atomicfile.WriteFile), so after any crash — SIGKILL or power
// loss — each file is either absent or a complete earlier version, and
// rescan decides a job from the files present alone: no job.json, skipped
// (the POST never answered 201); deployment.json, done with those bytes;
// state.json failed or cancelled, that state; otherwise queued, resuming
// checkpoint.json when present. Queued, running and done thus need no
// record; directories of older versions that have them rescan the same way.

const (
	scenarioFile   = "scenario.json"
	jobFile        = "job.json"
	stateFile      = "state.json"
	checkpointFile = "checkpoint.json"
	deploymentFile = "deployment.json"
)

// jobRecord is the job.json schema.
type jobRecord struct {
	ID      string        `json:"id"`
	Options recordOptions `json:"options"`
	Created string        `json:"created"`
}

// recordOptions is JobOptions as job.json stores it. Shards is the
// in-process shard-pool hint that earlier versions accepted and persisted;
// like Workers it never shaped the result, so rescan reads it and drops it.
type recordOptions struct {
	JobOptions
	Shards int `json:"shards,omitempty"`
}

// stateRecord is the state.json schema.
type stateRecord struct {
	State   JobState `json:"state"`
	Error   string   `json:"error,omitempty"`
	Updated string   `json:"updated"`
}

// writeFile durably writes data as a job's file, through s.write.
func (s *Server) writeFile(id, name string, data []byte) error {
	return s.write(filepath.Join(s.jobDir(id), name), data, 0o644)
}

// writeJSON durably writes v as a job's file, in indented JSON.
func (s *Server) writeJSON(id, name string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return s.writeFile(id, name, append(data, '\n'))
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

// persistNew commits a freshly-submitted job: its directory, its scenario,
// and last job.json, whose presence is what makes the job exist at rescan.
func (s *Server) persistNew(j *Job) error {
	if err := atomicfile.Mkdir(s.jobDir(j.ID), 0o755); err != nil {
		return err
	}
	sc, err := uavnet.MarshalScenario(j.Scenario)
	if err != nil {
		return err
	}
	if err := s.writeFile(j.ID, scenarioFile, append(sc, '\n')); err != nil {
		return err
	}
	rec := jobRecord{ID: j.ID, Options: recordOptions{JobOptions: j.Options}, Created: s.now()}
	return s.writeJSON(j.ID, jobFile, rec)
}

// persistState records a failed or cancelled job, or its requeue after one.
func (s *Server) persistState(j *Job) error {
	state, errMsg := j.State()
	return s.writeJSON(j.ID, stateFile, stateRecord{State: state, Error: errMsg, Updated: s.now()})
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
	return data, s.writeFile(j.ID, deploymentFile, data)
}

// rescan loads every job directory under cfg.Dir, rebuilding the in-memory
// job table after a restart by the rules of the layout comment above. The
// returned slice lists the jobs to re-enqueue, in directory order.
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
		switch err := readStrictJSON(filepath.Join(dir, jobFile), &rec); {
		case errors.Is(err, fs.ErrNotExist):
			// A crash before the commit record: that POST never answered 201.
			s.logf("rescan: skipping %s: no %s", dir, jobFile)
			continue
		case err != nil:
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
		j := &Job{ID: rec.ID, Scenario: sc, Options: rec.Options.JobOptions, state: JobQueued}
		data, err := os.ReadFile(filepath.Join(dir, deploymentFile))
		switch {
		case err == nil:
			j.state, j.result = JobDone, data
		case !errors.Is(err, fs.ErrNotExist):
			return nil, fmt.Errorf("server: job %s: %w", rec.ID, err)
		default:
			var st stateRecord
			if err := readStrictJSON(filepath.Join(dir, stateFile), &st); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("server: job %s: %w", rec.ID, err)
			}
			if st.State == JobFailed || st.State == JobCancelled {
				j.state, j.errMsg = st.State, st.Error
			} else {
				requeue = append(requeue, j)
			}
		}
		s.jobs[j.ID] = j
	}
	return requeue, nil
}
