package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// disk is a server's write seam under test: it performs every write with
// atomicfile.WriteFile, records the writes that reached their target, and
// can fail one chosen write once.
type disk struct {
	// failName and failN choose the write to fail: the failN-th write of a
	// file named failName (failN 0 fails none). With replaced the target is
	// replaced before the error, as when only the directory fsync fails;
	// otherwise it is left untouched, as when the disk is full.
	failName string
	failN    int
	replaced bool

	root string // the server's Config.Dir; recorded paths are relative to it

	mu     sync.Mutex
	writes []fileWrite
	seen   int // writes of failName so far
}

// fileWrite is one recorded durable write.
type fileWrite struct {
	rel  string
	data []byte
}

func (d *disk) write(path string, data []byte, perm os.FileMode) error {
	d.mu.Lock()
	hit := filepath.Base(path) == d.failName
	if hit {
		d.seen++
		hit = d.seen == d.failN
	}
	d.mu.Unlock()
	if hit && !d.replaced {
		return &fs.PathError{Op: "write", Path: path + ".tmp-1", Err: syscall.ENOSPC}
	}
	if err := atomicfile.WriteFile(path, data, perm); err != nil {
		return err
	}
	rel, err := filepath.Rel(d.root, path)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.writes = append(d.writes, fileWrite{rel, bytes.Clone(data)})
	d.mu.Unlock()
	if hit {
		return &fs.PathError{Op: "sync", Path: filepath.Dir(path), Err: syscall.EIO}
	}
	return nil
}

// log returns the writes recorded so far.
func (d *disk) log() []fileWrite {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.writes)
}

// fired reports whether the chosen write has failed.
func (d *disk) fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failN > 0 && d.seen >= d.failN
}

// states decodes the state records among writes, in order.
func states(t *testing.T, writes []fileWrite) []JobState {
	t.Helper()
	var out []JobState
	for _, w := range writes {
		if filepath.Base(w.rel) != stateFile {
			continue
		}
		var st stateRecord
		if err := json.Unmarshal(w.data, &st); err != nil {
			t.Fatal(err)
		}
		out = append(out, st.State)
	}
	return out
}

// newServer builds a one-worker server over dir whose every write goes
// through d. run starts it.
func newServer(t *testing.T, dir string, every time.Duration, d *disk) *Server {
	t.Helper()
	srv, err := New(Config{Dir: dir, Workers: 1, CheckpointEvery: every, Logf: t.Logf})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	d.root, srv.write = dir, d.write
	return srv
}

// run starts srv's workers and returns the function that stops them and
// waits for them to exit; the test's cleanup calls it too.
func run(t *testing.T, srv *Server) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	stop = func() {
		cancel()
		srv.Wait()
	}
	t.Cleanup(stop)
	return stop
}

// do serves one request through srv's handler.
func do(srv *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// awaitTerminal follows job id's events until it reaches a terminal state.
func awaitTerminal(t *testing.T, srv *Server, id string) (JobState, string) {
	t.Helper()
	j := srv.lookup(id)
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	ch, replay := j.subscribe()
	defer j.unsubscribe(ch)
	if ev := replay[0]; ev.State.terminal() {
		return ev.State, ev.Error
	}
	timeout := time.After(2 * time.Minute)
	for {
		select {
		case ev := <-ch:
			if ev.Type == "state" && ev.State.terminal() {
				return ev.State, ev.Error
			}
		case <-timeout:
			t.Fatalf("job %s did not finish", id)
		}
	}
}

// checkDone waits for job id to end and requires it done with want's bytes.
func checkDone(t *testing.T, srv *Server, id string, want []byte) {
	t.Helper()
	if state, msg := awaitTerminal(t, srv, id); state != JobDone {
		t.Fatalf("job ended %s (%s), want done", state, msg)
	}
	rec := do(srv, "GET", "/v1/jobs/"+id+"/result", nil)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("result: status %d, %d bytes; want the %d solo bytes", rec.Code, rec.Body.Len(), len(want))
	}
}

// finish drives job id on a restarted server to done with want's bytes: an
// unknown job is submitted anew (201) and a failed one resubmitted (200).
func finish(t *testing.T, srv *Server, id string, body, want []byte) {
	t.Helper()
	if j := srv.lookup(id); j == nil {
		if rec := do(srv, "POST", "/v1/jobs", body); rec.Code != http.StatusCreated {
			t.Fatalf("new submission: status %d: %s", rec.Code, rec.Body)
		}
	} else if state, _ := j.State(); state == JobFailed {
		if rec := do(srv, "POST", "/v1/jobs", body); rec.Code != http.StatusOK {
			t.Fatalf("resubmission: status %d: %s", rec.Code, rec.Body)
		}
	}
	checkDone(t, srv, id, want)
}

// copyTree copies the job directories under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, ent fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if ent.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// smallScenario enumerates C(25,3) subsets, a third of quickScenario's.
func smallScenario(t *testing.T) *uavnet.Scenario {
	t.Helper()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 2000, CellSide: 400, N: 150, K: 5, CMin: 20, CMax: 60, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// harnessJob is one job of the crash and fault harnesses, with its
// reference bytes and a healthy run's durable writes.
type harnessJob struct {
	name   string
	id     string
	body   []byte
	want   []byte
	slice  int64 // the server's sliceSubsets
	writes []fileWrite
}

// server builds a one-worker server over dir that slices the job as its
// recorded run did and sends every write through d. run starts it.
func (job *harnessJob) server(t *testing.T, dir string, d *disk) *Server {
	t.Helper()
	srv := newServer(t, dir, time.Hour, d)
	srv.sliceSubsets = job.slice
	return srv
}

// harnessJobs solves one job per solve path — a multi-slice enumeration, a
// multi-slice portfolio member and a demand-aggregated enumeration — on a
// healthy server and records its durable writes. The jobs are small, since
// the harnesses restart each one a few dozen times.
//
// Every job is multi-slice by construction: at an hour's cadence, the server
// ends the enum job's slices every 600 of its C(25, 3) = 2,300 subsets, the
// anneal job's every 150 of its 500 evaluations and the agg job's every 1,200
// of its C(36, 3) = 7,140 subsets, so their runs take exactly three, three
// and five checkpoints on any machine.
func harnessJobs(t *testing.T) []*harnessJob {
	t.Helper()
	specs := []struct {
		name        string
		sc          *uavnet.Scenario
		opts        JobOptions
		slice       int64
		checkpoints int
	}{
		{"enum", smallScenario(t), JobOptions{}, 600, 3},
		{"anneal", quickScenario(t, 5), JobOptions{Solver: "anneal", SolverBudget: 500}, 150, 3},
		{"agg", quickScenario(t, 6), JobOptions{AggCell: 200}, 1200, 5},
	}
	var jobs []*harnessJob
	for _, spec := range specs {
		sc := spec.sc
		job := &harnessJob{name: spec.name, id: JobID(sc, spec.opts), body: submitBody(t, sc, spec.opts),
			want: soloBytes(t, sc, spec.opts), slice: spec.slice}
		dir := t.TempDir()
		d := &disk{}
		srv := job.server(t, dir, d)
		stop := run(t, srv)
		if rec := do(srv, "POST", "/v1/jobs", job.body); rec.Code != http.StatusCreated {
			t.Fatalf("%s: submit: status %d: %s", spec.name, rec.Code, rec.Body)
		}
		checkDone(t, srv, job.id, job.want)
		stop()
		job.writes = d.log()
		checkpoints := 0
		for _, w := range job.writes {
			if filepath.Base(w.rel) == checkpointFile {
				checkpoints++
			}
		}
		if s := states(t, job.writes); len(s) != 0 {
			t.Fatalf("%s: a healthy run wrote state records %v", spec.name, s)
		}
		if checkpoints != spec.checkpoints {
			t.Fatalf("%s: %d checkpoints in slices of %d; want %d", spec.name, checkpoints, job.slice, spec.checkpoints)
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// TestDurableWriteCounts pins what each job event writes. A one-slice job
// writes its scenario, its commit record and its deployment, and nothing
// else; state.json records a cancel and a requeue over it, once each, and
// nothing for a job stopped by shutdown.
func TestDurableWriteCounts(t *testing.T) {
	dir := t.TempDir()
	d := &disk{}
	srv := newServer(t, dir, time.Hour, d)
	a, b := quickScenario(t, 1), quickScenario(t, 2)
	idA, idB := JobID(a, JobOptions{}), JobID(b, JobOptions{})

	// Submitted and cancelled before the workers start, so the worker meets
	// the cancelled job in its queue.
	if rec := do(srv, "POST", "/v1/jobs", submitBody(t, a, JobOptions{})); rec.Code != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(srv, "POST", "/v1/jobs/"+idA+"/cancel", nil); rec.Code != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(srv, "POST", "/v1/jobs", submitBody(t, b, JobOptions{})); rec.Code != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	stop := run(t, srv)
	checkDone(t, srv, idB, soloBytes(t, b, JobOptions{}))
	if rec := do(srv, "POST", "/v1/jobs", submitBody(t, a, JobOptions{})); rec.Code != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", rec.Code, rec.Body)
	}
	checkDone(t, srv, idA, soloBytes(t, a, JobOptions{}))

	// A job stopped by shutdown writes no state record either.
	c := slowScenario(t)
	idC := JobID(c, JobOptions{})
	if rec := do(srv, "POST", "/v1/jobs", submitBody(t, c, JobOptions{})); rec.Code != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
	}
	j := srv.lookup(idC)
	ch, replay := j.subscribe()
	for ev := replay[0]; ev.State != JobRunning; ev = <-ch {
		if ev.State.terminal() {
			t.Fatalf("job ended %s before the shutdown", ev.State)
		}
	}
	j.unsubscribe(ch)
	stop()
	if state, _ := j.State(); state != JobQueued {
		t.Fatalf("job stopped by shutdown is %s, want queued", state)
	}

	var got []string
	for _, w := range d.log() {
		if strings.HasPrefix(w.rel, idC) {
			if name := filepath.Base(w.rel); name == stateFile || name == deploymentFile {
				t.Errorf("job stopped by shutdown wrote %s", name)
			}
			continue
		}
		got = append(got, w.rel)
	}
	want := []string{
		filepath.Join(idA, scenarioFile), filepath.Join(idA, jobFile), filepath.Join(idA, stateFile),
		filepath.Join(idB, scenarioFile), filepath.Join(idB, jobFile), filepath.Join(idB, deploymentFile),
		filepath.Join(idA, stateFile), filepath.Join(idA, deploymentFile),
	}
	if !slices.Equal(got, want) {
		t.Errorf("writes\n%v\nwant\n%v", got, want)
	}
	if s := states(t, d.log()); !slices.Equal(s, []JobState{JobCancelled, JobQueued}) {
		t.Errorf("state records %v, want [cancelled queued]", s)
	}
}

// TestCrashAtEveryDurableWrite replays every prefix of a healthy run's
// durable writes, with and without a torn temp file of the next write, as
// the directory a crash left, and restarts a server over it. The job
// directory exists in every prefix, as after a crash just past the mkdir.
// Without job.json the job is unknown and a new submission finishes it;
// with job.json it finishes on its own; with deployment.json it is done at
// once and the restart writes nothing. Every finish serves the solo bytes.
func TestCrashAtEveryDurableWrite(t *testing.T) {
	for _, job := range harnessJobs(t) {
		t.Run(job.name, func(t *testing.T) {
			t.Parallel()
			for k := 0; k <= len(job.writes); k++ {
				for _, torn := range []bool{false, true} {
					if torn && k == len(job.writes) {
						continue
					}
					name := fmt.Sprintf("after-%d-writes", k)
					if torn {
						name += "-torn-" + filepath.Base(job.writes[k].rel)
					}
					t.Run(name, func(t *testing.T) { crashAt(t, job, k, torn) })
				}
			}
		})
	}
}

func crashAt(t *testing.T, job *harnessJob, k int, torn bool) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, job.id), 0o755); err != nil {
		t.Fatal(err)
	}
	has := map[string]bool{}
	for _, w := range job.writes[:k] {
		if err := os.WriteFile(filepath.Join(dir, w.rel), w.data, 0o644); err != nil {
			t.Fatal(err)
		}
		has[filepath.Base(w.rel)] = true
	}
	if torn {
		next := job.writes[k]
		if err := os.WriteFile(filepath.Join(dir, next.rel+".tmp-torn"), next.data[:len(next.data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d := &disk{}
	srv := job.server(t, dir, d)
	stop := run(t, srv)
	j := srv.lookup(job.id)
	switch {
	case has[deploymentFile]:
		if state, _ := j.State(); state != JobDone {
			t.Fatalf("job with its deployment rescanned as %s", state)
		}
		checkDone(t, srv, job.id, job.want)
		stop()
		if n := len(d.log()); n != 0 {
			t.Fatalf("the restart of a done job wrote %d files", n)
		}
	case has[jobFile]:
		if j == nil {
			t.Fatal("committed job unknown after the restart")
		}
		checkDone(t, srv, job.id, job.want)
	default:
		if j != nil {
			t.Fatal("uncommitted job known after the restart")
		}
		finish(t, srv, job.id, job.body, job.want)
	}
}

// TestWriteFaultRecovery fails each kind of durable write once: the job
// directory's mkdir, then with the target left untouched or already
// replaced the scenario, the commit record, the first checkpoint (none on
// disk before it), the second (an older one on disk, as for every later
// one) and the deployment, each at its place in a healthy run's order. A failed submission
// answers 500 and a failed checkpoint or deployment fails the job with an
// error naming the write and its cause, while the server keeps serving.
// After a restart with healthy writes the job finishes with the solo bytes,
// by itself or resubmitted.
func TestWriteFaultRecovery(t *testing.T) {
	for _, job := range harnessJobs(t) {
		t.Run(job.name, func(t *testing.T) {
			t.Parallel()
			t.Run("mkdir", func(t *testing.T) { faultAt(t, job, &disk{}) })
			seen := map[string]int{}
			for _, w := range job.writes {
				name := filepath.Base(w.rel)
				seen[name]++
				n := seen[name]
				if n > 2 {
					continue
				}
				for _, replaced := range []bool{false, true} {
					mode := "untouched"
					if replaced {
						mode = "replaced"
					}
					t.Run(fmt.Sprintf("%s-%d-%s", name, n, mode), func(t *testing.T) {
						faultAt(t, job, &disk{failName: name, failN: n, replaced: replaced})
					})
				}
			}
		})
	}
}

// faultAt runs job on a server whose writes go through d. When d fails no
// write, the job directory's mkdir fails instead: a regular file holds its
// path until the restart.
func faultAt(t *testing.T, job *harnessJob, d *disk) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, job.id)
	cause := syscall.ENOSPC.Error()
	switch {
	case d.failN == 0:
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		cause = syscall.EEXIST.Error()
	case d.replaced:
		cause = syscall.EIO.Error()
	}
	srv := job.server(t, dir, d)
	stop := run(t, srv)
	rec := do(srv, "POST", "/v1/jobs", job.body)
	var wantStates []JobState
	switch d.failName {
	case "", scenarioFile, jobFile:
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), cause) {
			t.Fatalf("submit: status %d: %s; want 500 naming %q", rec.Code, rec.Body, cause)
		}
		if srv.lookup(job.id) != nil {
			t.Fatal("a failed submission stayed registered")
		}
	default:
		if rec.Code != http.StatusCreated {
			t.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
		}
		state, msg := awaitTerminal(t, srv, job.id)
		if !d.fired() {
			t.Fatalf("the run ended %s before write %d of %s", state, d.failN, d.failName)
		}
		prefix := "persist checkpoint: "
		if d.failName == deploymentFile {
			prefix = "persist deployment: "
		}
		if state != JobFailed || !strings.HasPrefix(msg, prefix) || !strings.Contains(msg, cause) {
			t.Fatalf("job ended %s (%q); want failed with %q…%q", state, msg, prefix, cause)
		}
		wantStates = []JobState{JobFailed}
	}
	if rec := do(srv, "GET", "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz after the fault: status %d", rec.Code)
	}
	stop()
	if s := states(t, d.log()); !slices.Equal(s, wantStates) {
		t.Fatalf("state records %v, want %v", s, wantStates)
	}
	if d.failN == 0 {
		if err := os.Remove(blocker); err != nil {
			t.Fatal(err)
		}
	}

	srv = job.server(t, dir, &disk{})
	run(t, srv)
	finish(t, srv, job.id, job.body, job.want)
}

// TestRescanLegacyJobs restarts over job directories an earlier version
// wrote, with a state record for every transition: a done job; a done job
// whose done record is missing, its state.json still "running" as a crash
// between deployment.json and that record left it; and a portfolio job
// cancelled mid-run. Both done jobs serve their files' bytes without a
// write, and resubmitting the cancelled job resumes it to the solo bytes.
func TestRescanLegacyJobs(t *testing.T) {
	fixtures := map[string]string{
		"legacy-done-job":         "f0e344838f992120",
		"legacy-running-done-job": "aee89058a9875979",
		"legacy-cancelled-job":    "bb8dc9f3c952bcad",
	}
	dir := t.TempDir()
	for fixture := range fixtures {
		copyTree(t, filepath.Join("testdata", fixture), dir)
	}
	d := &disk{}
	srv := newServer(t, dir, 20*time.Millisecond, d)
	stop := run(t, srv)

	for _, fixture := range []string{"legacy-done-job", "legacy-running-done-job"} {
		id := fixtures[fixture]
		want, err := os.ReadFile(filepath.Join("testdata", fixture, id, deploymentFile))
		if err != nil {
			t.Fatal(err)
		}
		if state, _ := srv.lookup(id).State(); state != JobDone {
			t.Fatalf("%s rescanned as %s, want done", fixture, state)
		}
		checkDone(t, srv, id, want)
	}

	id := fixtures["legacy-cancelled-job"]
	if state, _ := srv.lookup(id).State(); state != JobCancelled {
		t.Fatalf("cancelled job rescanned as %s", state)
	}
	if n := len(d.log()); n != 0 {
		t.Fatalf("rescanned jobs wrote %d files before any request", n)
	}
	sc, err := uavnet.LoadScenario(filepath.Join(dir, id, scenarioFile))
	if err != nil {
		t.Fatal(err)
	}
	opts := JobOptions{Solver: "anneal", SolverBudget: 4000}
	if got := JobID(sc, opts); got != id {
		t.Fatalf("fixture job id %s, want %s", id, got)
	}
	if rec := do(srv, "POST", "/v1/jobs", submitBody(t, sc, opts)); rec.Code != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", rec.Code, rec.Body)
	}
	checkDone(t, srv, id, soloBytes(t, sc, opts))
	stop()
	for _, w := range d.log() {
		if !strings.HasPrefix(w.rel, id+string(filepath.Separator)) {
			t.Errorf("write %s outside the resubmitted job", w.rel)
		}
	}
}
