package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

// quickScenario solves in ~100ms: small enough for tight loops, large enough
// to emit progress.
func quickScenario(t *testing.T, seed int64) *uavnet.Scenario {
	t.Helper()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 2400, CellSide: 400, N: 150, K: 5, CMin: 20, CMax: 60, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// slowScenario enumerates C(64,3) = 41,664 subsets over 150 users (~0.2s
// solo): long enough to still be running when a test acts on the job.
func slowScenario(t *testing.T) *uavnet.Scenario {
	t.Helper()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 3200, CellSide: 400, N: 150, K: 5, CMin: 15, CMax: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// soloBytes computes the reference result the way cmd/uavdeploy -out would:
// one uninterrupted in-process solve, on the demand-aggregated instance when
// agg_cell is set, serialized with SaveDeployment.
func soloBytes(t *testing.T, sc *uavnet.Scenario, o JobOptions) []byte {
	t.Helper()
	n := o.normalized()
	in, err := uavnet.NewInstance(sc)
	if n.AggCell > 0 {
		in, err = uavnet.NewAggregateInstance(sc, uavnet.AggregateOptions{CellSide: n.AggCell})
	}
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstanceContext(context.Background(), in, uavnet.Options{
		S: n.S, MaxSubsets: n.MaxSubsets, Seed: n.Seed,
		DisablePrune: n.DisablePrune, GroundLeftovers: n.GroundLeftovers,
		Solver: n.Solver, SolverBudget: n.SolverBudget,
	})
	if err != nil {
		t.Fatalf("solo solve: %v", err)
	}
	path := filepath.Join(t.TempDir(), "solo.json")
	if err := uavnet.SaveDeployment(path, dep); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t *testing.T, dir string, workers int, checkpointEvery time.Duration) (*Server, context.CancelFunc) {
	t.Helper()
	srv, err := New(Config{
		Dir:             dir,
		Workers:         workers,
		CheckpointEvery: checkpointEvery,
		ProgressEvery:   5 * time.Millisecond,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	t.Cleanup(func() {
		cancel()
		srv.Wait()
	})
	return srv, cancel
}

// submitBody builds the POST /v1/jobs payload from a scenario and options.
func submitBody(t *testing.T, sc *uavnet.Scenario, o JobOptions) []byte {
	t.Helper()
	scData, err := uavnet.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Version  int             `json:"version"`
		Scenario json.RawMessage `json:"scenario"`
	}
	if err := json.Unmarshal(scData, &envelope); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"version": envelope.Version, "scenario": envelope.Scenario, "options": o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postJSON(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, base, id string, want JobState) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var sum jobSummary
		if code := getJSON(t, base+"/v1/jobs/"+id, &sum); code != http.StatusOK {
			t.Fatalf("GET job: status %d", code)
		}
		if sum.State == want {
			return
		}
		if sum.State.terminal() && want != sum.State {
			t.Fatalf("job reached terminal state %s (error %q) while waiting for %s", sum.State, sum.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for job %s to reach %s", id, want)
}

func fetchResult(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

func TestJobIDCanonicalization(t *testing.T) {
	sc := quickScenario(t, 1)
	base := JobID(sc, JobOptions{})
	// Defaults spelled out give the same id.
	if got := JobID(sc, JobOptions{S: 3, Solver: "enum"}); got != base {
		t.Errorf("explicit defaults changed the id: %s vs %s", got, base)
	}
	// Execution hints never change the id.
	if got := JobID(sc, JobOptions{Workers: 7}); got != base {
		t.Errorf("the workers hint changed the id: %s vs %s", got, base)
	}
	// Result-shaping fields do.
	if got := JobID(sc, JobOptions{Seed: 9}); got == base {
		t.Error("seed did not change the id")
	}
	if got := JobID(sc, JobOptions{Solver: "portfolio"}); got == base {
		t.Error("solver did not change the id")
	}
	if got := JobID(sc, JobOptions{AggCell: 400}); got == base {
		t.Error("agg_cell did not change the id")
	}
	// A different scenario does too.
	if got := JobID(quickScenario(t, 2), JobOptions{}); got == base {
		t.Error("scenario did not change the id")
	}
}

func TestJobOptionsValidate(t *testing.T) {
	bad := []JobOptions{
		{S: -1},
		{MaxSubsets: -5},
		{Workers: -1},
		{Solver: "magic"},
		{SolverBudget: 100},               // budget without a metaheuristic
		{Solver: "anneal", MaxSubsets: 5}, // metaheuristics don't cap subsets
		{AggCell: -1},
		{AggCell: math.NaN()},
		{AggCell: math.Inf(1)},
		{AggCell: math.Inf(-1)},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("options %+v should not validate", o)
		}
	}
	good := []JobOptions{
		{},
		{S: 3, Workers: 4, MaxSubsets: 100},
		{Solver: "portfolio", SolverBudget: 1000},
		{Solver: "anneal", SolverBudget: 500, AggCell: 400},
	}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("options %+v rejected: %v", o, err)
		}
	}
}

func TestSubmitSolveResultAndDedupe(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestServer(t, dir, 2, 50*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := quickScenario(t, 1)
	opts := JobOptions{Workers: 2}
	body := submitBody(t, sc, opts)

	resp, data := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first POST: status %d: %s", resp.StatusCode, data)
	}
	var sum jobSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.ID != JobID(sc, opts) {
		t.Errorf("server id %s, want %s", sum.ID, JobID(sc, opts))
	}

	// A duplicate POST — even with different execution hints — dedupes.
	resp, dup := postJSON(t, ts.URL+"/v1/jobs", submitBody(t, sc, JobOptions{Workers: 1}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate POST: status %d: %s", resp.StatusCode, dup)
	}
	var dupSum jobSummary
	json.Unmarshal(dup, &dupSum)
	if dupSum.ID != sum.ID {
		t.Errorf("duplicate got id %s, want %s", dupSum.ID, sum.ID)
	}

	// Result before done is a 409.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sum.ID+"/result", nil); code == http.StatusOK {
		t.Error("result served before the job finished")
	}

	waitState(t, ts.URL, sum.ID, JobDone)
	got := fetchResult(t, ts.URL, sum.ID)
	want := soloBytes(t, sc, opts)
	if !bytes.Equal(got, want) {
		t.Errorf("served deployment differs from the solo solve (%d vs %d bytes)", len(got), len(want))
	}

	// Listing includes the job.
	var list struct {
		Jobs []jobSummary `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sum.ID {
		t.Errorf("listing = %+v, want the one done job", list.Jobs)
	}

	// A fresh server over the same directory rescans the finished job and
	// serves the identical bytes without re-solving.
	srv2, err := New(Config{Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var again jobSummary
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+sum.ID, &again); code != http.StatusOK || again.State != JobDone {
		t.Fatalf("rescanned job: code %d state %s", code, again.State)
	}
	if got2 := fetchResult(t, ts2.URL, sum.ID); !bytes.Equal(got2, want) {
		t.Error("rescanned result differs from the original")
	}
}

func TestSubmitRejectsUnknownFields(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir(), 1, time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := quickScenario(t, 1)
	body := submitBody(t, sc, JobOptions{})

	// Top-level typo.
	broken := bytes.Replace(body, []byte(`"options"`), []byte(`"optons"`), 1)
	resp, data := postJSON(t, ts.URL+"/v1/jobs", broken)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "optons") {
		t.Errorf("typo'd options key: status %d body %s", resp.StatusCode, data)
	}

	// Typo inside the options object.
	var m map[string]json.RawMessage
	json.Unmarshal(body, &m)
	m["options"] = []byte(`{"seeed": 5}`)
	withBadOpt, _ := json.Marshal(m)
	resp, data = postJSON(t, ts.URL+"/v1/jobs", withBadOpt)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "seeed") {
		t.Errorf("typo'd option field: status %d body %s", resp.StatusCode, data)
	}

	// Typo inside the scenario object.
	if !bytes.Contains(body, []byte(`"UAVRange"`)) {
		t.Fatal("test assumption broken: scenario JSON has no UAVRange key")
	}
	badScenario := bytes.Replace(body, []byte(`"UAVRange"`), []byte(`"UAVRnage"`), 1)
	resp, data = postJSON(t, ts.URL+"/v1/jobs", badScenario)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "UAVRnage") {
		t.Errorf("typo'd scenario field: status %d body %s", resp.StatusCode, data)
	}

	// The retired shard-pool hint is an unknown field like any other.
	m["options"] = []byte(`{"shards": 3}`)
	withShards, _ := json.Marshal(m)
	resp, data = postJSON(t, ts.URL+"/v1/jobs", withShards)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "shards") {
		t.Errorf("shards option: status %d body %s", resp.StatusCode, data)
	}

	// Invalid option combination.
	resp, data = postJSON(t, ts.URL+"/v1/jobs", submitBody(t, sc, JobOptions{Solver: "anneal", MaxSubsets: 5}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid options accepted: status %d body %s", resp.StatusCode, data)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	dir := t.TempDir()
	srv, _ := newTestServer(t, dir, 1, 30*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := slowScenario(t)
	quick := quickScenario(t, 3)

	// Occupy the single worker, then queue a second job behind it.
	resp, data := postJSON(t, ts.URL+"/v1/jobs", submitBody(t, long, JobOptions{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("long job: status %d: %s", resp.StatusCode, data)
	}
	var longSum jobSummary
	json.Unmarshal(data, &longSum)
	waitState(t, ts.URL, longSum.ID, JobRunning)

	_, data = postJSON(t, ts.URL+"/v1/jobs", submitBody(t, quick, JobOptions{}))
	var quickSum jobSummary
	json.Unmarshal(data, &quickSum)

	// Cancelling the queued job is immediate.
	resp, data = postJSON(t, ts.URL+"/v1/jobs/"+quickSum.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued: status %d: %s", resp.StatusCode, data)
	}
	var cancelled jobSummary
	json.Unmarshal(data, &cancelled)
	if cancelled.State != JobCancelled {
		t.Errorf("queued job cancel state = %s, want cancelled", cancelled.State)
	}

	// Cancelling the running job stops it; its checkpoint survives on disk.
	resp, data = postJSON(t, ts.URL+"/v1/jobs/"+longSum.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running: status %d: %s", resp.StatusCode, data)
	}
	waitState(t, ts.URL, longSum.ID, JobCancelled)
	if _, err := os.Stat(filepath.Join(dir, longSum.ID, checkpointFile)); err != nil {
		t.Errorf("cancelled job left no checkpoint: %v", err)
	}

	// Cancelling again conflicts.
	resp, _ = postJSON(t, ts.URL+"/v1/jobs/"+longSum.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel: status %d, want 409", resp.StatusCode)
	}

	// Resubmitting the cancelled job resumes it from the checkpoint to the
	// same bytes an uninterrupted run produces.
	resp, data = postJSON(t, ts.URL+"/v1/jobs", submitBody(t, long, JobOptions{}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: status %d: %s", resp.StatusCode, data)
	}
	waitState(t, ts.URL, longSum.ID, JobDone)
	got := fetchResult(t, ts.URL, longSum.ID)
	if want := soloBytes(t, long, JobOptions{}); !bytes.Equal(got, want) {
		t.Error("resumed deployment differs from the solo solve")
	}
}

// TestShutdownRestartResumesByteIdentical is the crash-recovery contract: a
// server stopped mid-solve leaves a durable checkpoint; a new server over the
// same directory rescans, resumes, and finishes with a deployment
// byte-identical to an uninterrupted solve. It covers the enumeration, a
// portfolio member whose budget spans several slices, and an enumeration on
// several worker goroutines.
func TestShutdownRestartResumesByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		opts JobOptions
	}{
		{"enum", JobOptions{}},
		{"anneal", JobOptions{Solver: "anneal", SolverBudget: 4000}},
		{"workers", JobOptions{Workers: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sc := slowScenario(t)

			srvA, cancelA := newTestServer(t, dir, 1, 20*time.Millisecond)
			tsA := httptest.NewServer(srvA.Handler())
			resp, data := postJSON(t, tsA.URL+"/v1/jobs", submitBody(t, sc, tc.opts))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
			}
			var sum jobSummary
			json.Unmarshal(data, &sum)

			// Wait for at least one durable checkpoint, then pull the plug.
			ckptPath := filepath.Join(dir, sum.ID, checkpointFile)
			deadline := time.Now().Add(60 * time.Second)
			for {
				if _, err := os.Stat(ckptPath); err == nil {
					break
				}
				var cur jobSummary
				getJSON(t, tsA.URL+"/v1/jobs/"+sum.ID, &cur)
				if cur.State == JobDone {
					t.Skip("job finished before the first checkpoint; scenario too small for this machine")
				}
				if time.Now().After(deadline) {
					t.Fatal("no checkpoint appeared")
				}
				time.Sleep(2 * time.Millisecond)
			}
			cancelA()
			srvA.Wait()
			tsA.Close()

			// The interrupted job must leave no state record: without one
			// it rescans as queued (not failed or cancelled).
			if _, err := os.Stat(filepath.Join(dir, sum.ID, stateFile)); !os.IsNotExist(err) {
				t.Fatalf("interrupted job left a state record: %v", err)
			}

			// Restart: a new server over the same directory resumes to
			// completion.
			srvB, _ := newTestServer(t, dir, 1, 50*time.Millisecond)
			tsB := httptest.NewServer(srvB.Handler())
			defer tsB.Close()
			waitState(t, tsB.URL, sum.ID, JobDone)
			got := fetchResult(t, tsB.URL, sum.ID)
			if want := soloBytes(t, sc, tc.opts); !bytes.Equal(got, want) {
				t.Errorf("resumed deployment differs from the solo solve (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

func TestSweep(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir(), 2, time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := quickScenario(t, 1)
	scData, _ := uavnet.MarshalScenario(sc)
	var envelope struct {
		Version  int             `json:"version"`
		Scenario json.RawMessage `json:"scenario"`
	}
	json.Unmarshal(scData, &envelope)
	body, _ := json.Marshal(map[string]any{
		"version":  envelope.Version,
		"scenario": envelope.Scenario,
		"options":  []JobOptions{{Seed: 1}, {Seed: 2}, {Seed: 1, GroundLeftovers: true}},
	})
	resp, data := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Jobs []jobSummary `json:"jobs"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != 3 {
		t.Fatalf("sweep returned %d jobs, want 3", len(out.Jobs))
	}
	seen := map[string]bool{}
	for _, j := range out.Jobs {
		if seen[j.ID] {
			t.Errorf("sweep produced duplicate id %s", j.ID)
		}
		seen[j.ID] = true
		waitState(t, ts.URL, j.ID, JobDone)
	}

	// One bad entry rejects the whole sweep atomically.
	badBody, _ := json.Marshal(map[string]any{
		"version":  envelope.Version,
		"scenario": envelope.Scenario,
		"options":  []JobOptions{{Seed: 99}, {Solver: "magic"}},
	})
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", badBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad sweep entry: status %d, want 400", resp.StatusCode)
	}
	var check jobSummary
	if code := getJSON(t, ts.URL+"/v1/jobs/"+JobID(sc, JobOptions{Seed: 99}), &check); code != http.StatusNotFound {
		t.Errorf("half-submitted sweep: job for options[0] exists (code %d)", code)
	}
}

// TestSSEStream pins the events contract: an immediate state replay, live
// progress snapshots while running, and a terminal "done" that ends the
// stream.
func TestSSEStream(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir(), 1, 40*time.Millisecond)
	// Slices also end every 10,000 subsets, so the job takes at least four
	// checkpoints however fast it solves. No job exists yet, and the
	// submission below passes through the queue's lock before any worker
	// reads the field.
	srv.sliceSubsets = 10000
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := slowScenario(t)
	resp, data := postJSON(t, ts.URL+"/v1/jobs", submitBody(t, sc, JobOptions{}))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sum jobSummary
	json.Unmarshal(data, &sum)

	stream, err := http.Get(ts.URL + "/v1/jobs/" + sum.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var events []Event
	sc2 := bufio.NewScanner(stream.Body)
	for sc2.Scan() {
		line := sc2.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc2.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("stream carried no events")
	}
	if events[0].Type != "state" {
		t.Errorf("first event is %q, want the state replay", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != JobDone {
		t.Errorf("stream ended on %+v, want the terminal done state", last)
	}
	var progress, checkpoints int
	for _, ev := range events {
		switch ev.Type {
		case "progress":
			progress++
			if ev.Progress == nil {
				t.Error("progress event without a snapshot")
			}
		case "checkpoint":
			checkpoints++
		}
	}
	if progress == 0 {
		t.Error("stream carried no progress snapshots")
	}
	if checkpoints == 0 {
		t.Error("stream carried no checkpoint events")
	}

	// A late subscriber to the finished job gets the terminal replay and an
	// immediately closed stream.
	late, err := http.Get(ts.URL + "/v1/jobs/" + sum.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Body.Close()
	var lateData bytes.Buffer
	lateData.ReadFrom(late.Body)
	if !strings.Contains(lateData.String(), `"state":"done"`) {
		t.Errorf("late subscriber replay missing done state: %s", lateData.String())
	}
}

// TestTerminalEventSurvivesFullBuffer fills a subscriber's buffer with
// progress snapshots, then ends the job: the terminal state event must still
// reach the subscriber, or its stream would wait for a disconnect.
func TestTerminalEventSurvivesFullBuffer(t *testing.T) {
	j := &Job{state: JobRunning}
	ch, _ := j.subscribe()
	for i := 0; i < cap(ch); i++ {
		j.publish(Event{Type: "progress", Progress: &ProgressInfo{Done: int64(i)}})
	}
	j.setState(JobDone, "")
	var last Event
	for len(ch) > 0 {
		last = <-ch
	}
	if last.Type != "state" || last.State != JobDone {
		t.Errorf("last buffered event %+v, want the terminal done state", last)
	}
}

// TestPortfolioAndAggregateJobs exercises the two non-default solve paths
// end to end: a metaheuristic portfolio job and a demand-aggregated job.
func TestPortfolioAndAggregateJobs(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir(), 2, 50*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sc := quickScenario(t, 1)
	cases := []JobOptions{
		{Solver: "anneal", SolverBudget: 2000},
		{AggCell: 400},
	}
	for _, o := range cases {
		resp, data := postJSON(t, ts.URL+"/v1/jobs", submitBody(t, sc, o))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %+v: status %d: %s", o, resp.StatusCode, data)
		}
		var sum jobSummary
		json.Unmarshal(data, &sum)
		waitState(t, ts.URL, sum.ID, JobDone)
		if got, want := fetchResult(t, ts.URL, sum.ID), soloBytes(t, sc, o); !bytes.Equal(got, want) {
			t.Errorf("options %+v: served deployment differs from the solo solve", o)
		}
	}
}

// TestRescanResumesLegacyShardsJob restarts over a job directory written by
// an earlier version for a {"shards": 3} job, stopped during its first
// slice. That slice ran the in-process shard pool, so the checkpoint is a
// merged one with several unprocessed holes. Rescan must drop the retired
// hint, keep the job id, and resume the holes to the unsharded bytes.
func TestRescanResumesLegacyShardsJob(t *testing.T) {
	const id = "f3a084846a6e18e1"
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "legacy-shards-job"), dir)
	cp, err := uavnet.LoadCheckpoint(filepath.Join(dir, id, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cp.RemainingSpans()); n < 2 {
		t.Fatalf("fixture checkpoint has %d unprocessed spans, want a merged multi-span one", n)
	}
	// Progress counts every processed subset (the counters' sum), not the
	// first hole's start.
	if done, total := cp.Frontier(); done != cp.Evaluated+cp.Pruned || total != cp.Total {
		t.Errorf("frontier %d / %d, want %d / %d", done, total, cp.Evaluated+cp.Pruned, cp.Total)
	}
	sc, err := uavnet.LoadScenario(filepath.Join(dir, id, scenarioFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := JobID(sc, JobOptions{}); got != id {
		t.Fatalf("fixture job id %s, want the unsharded id %s", id, got)
	}

	srv, _ := newTestServer(t, dir, 1, 30*time.Millisecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	waitState(t, ts.URL, id, JobDone)
	if got, want := fetchResult(t, ts.URL, id), soloBytes(t, sc, JobOptions{}); !bytes.Equal(got, want) {
		t.Error("resumed legacy sharded job differs from the unsharded solo solve")
	}
	var sum jobSummary
	getJSON(t, ts.URL+"/v1/jobs/"+id, &sum)
	if sum.Options != (JobOptions{}) {
		t.Errorf("rescanned options = %+v, want the empty options", sum.Options)
	}
}

func TestHealthz(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var out map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &out); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if out["status"] != "ok" {
		t.Errorf("healthz body = %v", out)
	}
}

func TestRescanRejectsCorruptJobDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "deadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "deadbeef", jobFile), []byte(`{"id":"deadbeef","optons":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "optons") {
		t.Errorf("corrupt job.json accepted at rescan: %v", err)
	}
}

func TestSubmitRejectsInvalidScenario(t *testing.T) {
	srv, _ := newTestServer(t, t.TempDir(), 1, time.Second)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, data := postJSON(t, ts.URL+"/v1/jobs", []byte(`{"version":1,"scenario":{"users":[]}}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid scenario: status %d body %s", resp.StatusCode, data)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/jobs", []byte(`{"version":7}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing scenario: status %d", resp.StatusCode)
	}
}
