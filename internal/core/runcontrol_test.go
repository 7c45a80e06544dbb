package core

import (
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uav-coverage/uavnet/internal/geom"
)

// runControlScenario builds a 16-cell scenario with enough scattered users
// that many anchor subsets are feasible: C(16, 3) = 560 enumeration indices,
// big enough to cut mid-way and resume.
func runControlScenario(t *testing.T) *Instance {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	var users []geom.Point2
	for i := 0; i < 60; i++ {
		users = append(users, geom.Point2{X: r.Float64() * 2000, Y: r.Float64() * 2000})
	}
	in, err := NewInstance(testScenario(users, []int{9, 7, 5, 4, 3}))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCheckpointJSONRoundtrip(t *testing.T) {
	cp := &Checkpoint{
		Algorithm:           "approAlg",
		ScenarioFingerprint: 0xdeadbeef,
		S:                   3,
		Seed:                42,
		MaxSubsets:          100,
		DisablePrune:        true,
		RequiredCells:       []int{2, 5},
		Total:               560,
		Sampled:             true,
		Cursor:              128,
		Evaluated:           100,
		Pruned:              28,
		Best:                &CheckpointBest{Idx: 17, Served: 33, Locs: []int{1, 2, 3}, NSel: 2},
	}
	data, err := cp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(cp)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("roundtrip changed the checkpoint:\n%s\n%s", a, b)
	}
}

func TestUnmarshalCheckpointRejects(t *testing.T) {
	if _, err := UnmarshalCheckpoint([]byte("{not json")); err == nil {
		t.Error("malformed JSON should fail")
	}
	if _, err := UnmarshalCheckpoint([]byte(`{"algorithm":"MCS"}`)); err == nil {
		t.Error("foreign algorithm should fail")
	}
}

// TestUnmarshalCheckpointRejectsForeignKindFields: each checkpoint kind
// decodes with the other kind's fields left zero, and a file carrying a
// non-zero field of the other kind — which no solver would read — is
// rejected with an error naming the kind.
func TestUnmarshalCheckpointRejectsForeignKindFields(t *testing.T) {
	enum := `{"algorithm":"approAlg","scenario_fingerprint":1,"s":3,"seed":0,"total_subsets":10,"cursor":4,"evaluated":4,"pruned":0`
	port := `{"algorithm":"portfolio","scenario_fingerprint":1,"s":3,"seed":0,"total_subsets":0,"cursor":0,"evaluated":0,"pruned":0,"solver":"anneal","budget":50,"members":[{"name":"anneal","steps":1,"evals":1,"rng":7,"cur_served":0,"best_served":-1}]`
	for _, ok := range []string{enum + `}`, port + `}`} {
		if _, err := UnmarshalCheckpoint([]byte(ok)); err != nil {
			t.Fatalf("valid checkpoint %s rejected: %v", ok, err)
		}
	}
	cases := []struct{ kind, doc string }{
		{"approAlg", enum + `,"solver":"anneal"}`},
		{"approAlg", enum + `,"budget":50}`},
		{"approAlg", enum + `,"members":[]}`},
		{"portfolio", strings.Replace(port, `"cursor":0`, `"cursor":3`, 1) + `}`},
		{"portfolio", strings.Replace(port, `"total_subsets":0`, `"total_subsets":10`, 1) + `}`},
		{"portfolio", port + `,"max_subsets":5}`},
		{"portfolio", port + `,"shard":{"index":0,"count":2,"start":0,"end":5}}`},
		{"portfolio", port + `,"best":{"idx":1,"served":2,"locs":[1],"nsel":1}}`},
	}
	for _, tc := range cases {
		_, err := UnmarshalCheckpoint([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.kind) {
			t.Errorf("%s: got %v, want a rejection naming %s", tc.doc, err, tc.kind)
		}
	}
}

func TestStopAfterProducesResumableCheckpoint(t *testing.T) {
	in := runControlScenario(t)
	base := Options{S: 3, Workers: 3}

	full, err := Approx(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != StatusComplete {
		t.Fatalf("uninterrupted run has status %q", full.Status)
	}
	if full.Checkpoint != nil {
		t.Error("complete run must not carry a checkpoint")
	}
	total := full.SubsetsEvaluated + full.SubsetsPruned

	cut := base
	cut.StopAfter = total / 2
	part, err := Approx(context.Background(), in, cut)
	if err != nil {
		t.Fatalf("StopAfter is not a context error, got %v", err)
	}
	if part.Status != StatusStopped || part.Checkpoint == nil {
		t.Fatalf("cut run: status %q, checkpoint %v", part.Status, part.Checkpoint)
	}
	cp := part.Checkpoint
	if cp.Cursor != total/2 {
		t.Errorf("checkpoint cursor %d, want exactly %d", cp.Cursor, total/2)
	}
	if cp.Evaluated+cp.Pruned != cp.Cursor {
		t.Errorf("counters %d+%d do not cover the prefix %d", cp.Evaluated, cp.Pruned, cp.Cursor)
	}
	if cp.Total != total {
		t.Errorf("checkpoint total %d, want %d", cp.Total, total)
	}

	resumed := base
	resumed.Resume = cp
	dep, err := Approx(context.Background(), in, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != StatusComplete {
		t.Fatalf("resumed run has status %q", dep.Status)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(dep)
	if string(a) != string(b) {
		t.Errorf("resumed deployment differs from uninterrupted run:\n%s\n%s", a, b)
	}
}

func TestStopAfterResumeSampledMode(t *testing.T) {
	in := runControlScenario(t)
	base := Options{S: 3, Workers: 2, MaxSubsets: 120, Seed: 5}

	full, err := Approx(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	cut := base
	cut.StopAfter = 60
	part, err := Approx(context.Background(), in, cut)
	if err != nil {
		t.Fatal(err)
	}
	if part.Checkpoint == nil || !part.Checkpoint.Sampled {
		t.Fatalf("sampled cut run should checkpoint with Sampled set: %+v", part.Checkpoint)
	}
	resumed := base
	resumed.Resume = part.Checkpoint
	dep, err := Approx(context.Background(), in, resumed)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(dep)
	if string(a) != string(b) {
		t.Errorf("sampled resume differs from uninterrupted run:\n%s\n%s", a, b)
	}
}

// TestWorkerCountByteIdentical is the contract of the in-process parallel
// path: the worker count changes only how fast the enumeration runs. Every
// count yields the same bytes, and a run stopped under one count resumes
// under another to the uninterrupted deployment.
func TestWorkerCountByteIdentical(t *testing.T) {
	in := runControlScenario(t)
	full, err := Approx(context.Background(), in, Options{S: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(full)
	total := full.SubsetsEvaluated + full.SubsetsPruned
	for _, workers := range []int{2, 3, 8} {
		dep, err := Approx(context.Background(), in, Options{S: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(dep); string(got) != string(want) {
			t.Errorf("workers=%d: deployment differs from workers=1", workers)
		}
	}
	for _, pair := range [][2]int{{8, 1}, {1, 8}, {3, 2}} {
		part, err := Approx(context.Background(), in, Options{S: 3, Workers: pair[0], StopAfter: total / 3})
		if err != nil {
			t.Fatal(err)
		}
		if part.Checkpoint == nil {
			t.Fatalf("workers=%d: cut run returned no checkpoint", pair[0])
		}
		dep, err := Approx(context.Background(), in, Options{S: 3, Workers: pair[1], Resume: part.Checkpoint})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(dep); string(got) != string(want) {
			t.Errorf("stopped under workers=%d, resumed under %d: deployment differs", pair[0], pair[1])
		}
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	in := runControlScenario(t)
	base := Options{S: 3, Workers: 2, StopAfter: 100}
	part, err := Approx(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	cp := part.Checkpoint
	if cp == nil {
		t.Fatal("no checkpoint")
	}

	mutations := []struct {
		name   string
		mutate func(*Options)
	}{
		{"s", func(o *Options) { o.S = 2 }},
		{"seed", func(o *Options) { o.Seed = 99 }},
		{"max-subsets", func(o *Options) { o.MaxSubsets = 50 }},
		{"disable-prune", func(o *Options) { o.DisablePrune = true }},
		{"ground-leftovers", func(o *Options) { o.GroundLeftovers = true }},
		{"required-cells", func(o *Options) { o.RequiredCells = []int{1} }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			opts := Options{S: 3, Workers: 2, Resume: cp}
			m.mutate(&opts)
			if _, err := Approx(context.Background(), in, opts); err == nil {
				t.Errorf("mutated %s should reject the checkpoint", m.name)
			}
		})
	}

	t.Run("scenario", func(t *testing.T) {
		other := runControlScenario(t)
		other.Scenario.Users[0].Pos.X += 1
		otherIn, err := NewInstance(other.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{S: 3, Workers: 2, Resume: cp}
		if _, err := Approx(context.Background(), otherIn, opts); err == nil ||
			!strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("foreign scenario should fail on fingerprint, got %v", err)
		}
	})

	t.Run("cursor-range", func(t *testing.T) {
		bad := *cp
		bad.Cursor = cp.Total + 1
		opts := Options{S: 3, Workers: 2, Resume: &bad}
		if _, err := Approx(context.Background(), in, opts); err == nil {
			t.Error("out-of-range cursor should fail")
		}
	})
}

func TestApproxAlreadyCancelledContext(t *testing.T) {
	in := runControlScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	dep, err := Approx(ctx, in, Options{S: 3, Workers: 3})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled run took %s to return", elapsed)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dep == nil || dep.Status != StatusStopped {
		t.Fatalf("cancelled run should return a stopped best-so-far deployment, got %+v", dep)
	}
	// Nothing was processed, so the deployment is the empty placement and the
	// checkpoint frontier sits at zero.
	if dep.Served != 0 || dep.DeployedCount() != 0 {
		t.Errorf("zero-work deployment serves %d with %d UAVs", dep.Served, dep.DeployedCount())
	}
	if dep.Checkpoint == nil || dep.Checkpoint.Cursor != 0 {
		t.Errorf("checkpoint = %+v, want cursor 0", dep.Checkpoint)
	}

	// The zero-work checkpoint must itself resume to the full result.
	full, err := Approx(context.Background(), in, Options{S: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Approx(context.Background(), in, Options{S: 3, Workers: 3, Resume: dep.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(full)
	b, _ := json.Marshal(resumed)
	if string(a) != string(b) {
		t.Error("resume from cursor 0 differs from a fresh run")
	}
}

func TestProgressHook(t *testing.T) {
	in := runControlScenario(t)
	var calls atomic.Int64
	var last atomic.Pointer[Progress]
	opts := Options{
		S: 3, Workers: 2,
		ProgressInterval: time.Millisecond,
		Progress: func(p Progress) {
			calls.Add(1)
			last.Store(&p)
		},
	}
	dep, err := Approx(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("progress hook never fired")
	}
	final := last.Load()
	if final == nil {
		t.Fatal("no final snapshot")
	}
	// The last snapshot is delivered synchronously after the workers join, so
	// it must describe the finished run exactly.
	if final.Done != final.Total {
		t.Errorf("final snapshot done %d / total %d", final.Done, final.Total)
	}
	if final.Done != final.Evaluated+final.Pruned {
		t.Errorf("Done %d != Evaluated %d + Pruned %d", final.Done, final.Evaluated, final.Pruned)
	}
	if final.Evaluated != dep.SubsetsEvaluated || final.Pruned != dep.SubsetsPruned {
		t.Errorf("final counters (%d, %d) disagree with deployment (%d, %d)",
			final.Evaluated, final.Pruned, dep.SubsetsEvaluated, dep.SubsetsPruned)
	}
	if final.BestServed != dep.Served {
		t.Errorf("final BestServed %d != deployment served %d", final.BestServed, dep.Served)
	}
	if final.Elapsed <= 0 {
		t.Errorf("final Elapsed = %s", final.Elapsed)
	}
}

func TestStopAfterBelowResumeCursorKeepsFrontier(t *testing.T) {
	in := runControlScenario(t)
	base := Options{S: 3, Workers: 2, StopAfter: 100}
	part, err := Approx(context.Background(), in, base)
	if err != nil {
		t.Fatal(err)
	}
	cp := part.Checkpoint
	opts := Options{S: 3, Workers: 2, Resume: cp, StopAfter: 10}
	dep, err := Approx(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != StatusStopped || dep.Checkpoint == nil {
		t.Fatalf("status %q, checkpoint %v", dep.Status, dep.Checkpoint)
	}
	if dep.Checkpoint.Cursor != cp.Cursor {
		t.Errorf("frontier moved from %d to %d under a smaller budget", cp.Cursor, dep.Checkpoint.Cursor)
	}
}

func TestScenarioFingerprint(t *testing.T) {
	a := runControlScenario(t).Scenario
	b := runControlScenario(t).Scenario
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical scenarios disagree on fingerprint")
	}
	b.Users[3].MinRateBps += 1
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("user change did not move the fingerprint")
	}
	c := runControlScenario(t).Scenario
	c.UAVs[0].Capacity++
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("fleet change did not move the fingerprint")
	}
}

// TestResumeProgressCountsThisRunOnly pins the resume-time progress fix: the
// rate and ETA must be computed from the work this run actually did, not
// from a cursor that includes the resumed checkpoint's prefix. The resumed
// run below gets a budget of exactly 8 indices beyond the checkpoint, so its
// final snapshot must report ScopeDone == ScopeTotal == 8 with a zero ETA —
// under the old cursor-based formula the pre-resume prefix would have
// inflated the apparent rate and the un-budgeted tail would have kept the
// ETA non-zero even though the run was finished.
func TestResumeProgressCountsThisRunOnly(t *testing.T) {
	in := runControlScenario(t)
	total := int64(560) // C(16, 3)

	cut := Options{S: 3, Workers: 2, StopAfter: total / 2}
	part, err := Approx(context.Background(), in, cut)
	if err != nil {
		t.Fatal(err)
	}
	cp := part.Checkpoint
	if cp == nil || cp.Cursor != total/2 {
		t.Fatalf("cut checkpoint %+v", cp)
	}

	var mu sync.Mutex
	var last Progress
	calls := 0
	opts := Options{
		S: 3, Workers: 2,
		Resume:    cp,
		StopAfter: cp.Cursor + 8,
		Progress: func(p Progress) {
			mu.Lock()
			last = p
			calls++
			mu.Unlock()
		},
		// Only the final synchronous snapshot fires within the test.
		ProgressInterval: time.Hour,
	}
	dep, err := Approx(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != StatusStopped {
		t.Fatalf("status %q, want stopped by budget", dep.Status)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Fatal("progress hook never called")
	}
	if last.ScopeTotal != 8 || last.ScopeDone != 8 {
		t.Errorf("scope = %d/%d, want 8/8: this run's claimable work is the budget beyond the checkpoint", last.ScopeDone, last.ScopeTotal)
	}
	if last.ETA != 0 {
		t.Errorf("ETA = %s at scope completion, want 0: neither the resumed prefix nor work beyond the budget may feed the estimate", last.ETA)
	}
	if last.Done != cp.Cursor+8 {
		t.Errorf("Done = %d, want %d (resumed prefix plus this run's work)", last.Done, cp.Cursor+8)
	}
	if last.Total != total {
		t.Errorf("Total = %d, want %d", last.Total, total)
	}
	if last.Done != last.Evaluated+last.Pruned {
		t.Errorf("Done %d != Evaluated %d + Pruned %d", last.Done, last.Evaluated, last.Pruned)
	}
}
