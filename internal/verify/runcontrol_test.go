package verify

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/workload"
)

// resumeSeeds is the corpus size for the resume-equivalence check, matching
// the differential harness's seed corpus.
const resumeSeeds = 60

// TestResumeByteIdentical cuts every corpus scenario's enumeration in half
// with a deterministic work budget, resumes it from the checkpoint, and
// requires the finished deployment to serialize byte-for-byte identically to
// an uninterrupted run — the contract uavdeploy -resume relies on.
func TestResumeByteIdentical(t *testing.T) {
	for seed := int64(0); seed < resumeSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		sc, err := RandomScenario(r)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in, err := core.NewInstance(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s := 2
		if s > sc.K() {
			s = sc.K()
		}
		base := core.Options{S: s, Workers: 2}

		full, err := core.Approx(context.Background(), in, base)
		if err != nil {
			t.Fatalf("seed %d: uninterrupted: %v", seed, err)
		}
		total := full.SubsetsEvaluated + full.SubsetsPruned
		if total < 2 {
			continue // nothing to cut
		}

		cut := base
		cut.StopAfter = total / 2
		part, err := core.Approx(context.Background(), in, cut)
		if err != nil {
			t.Fatalf("seed %d: cut: %v", seed, err)
		}
		if part.Status != core.StatusStopped || part.Checkpoint == nil {
			t.Fatalf("seed %d: cut run status %q, checkpoint %v", seed, part.Status, part.Checkpoint)
		}

		// Serialize/parse the checkpoint as the CLI does, so the JSON form is
		// part of what the corpus exercises.
		data, err := part.Checkpoint.Marshal()
		if err != nil {
			t.Fatalf("seed %d: marshal: %v", seed, err)
		}
		cp, err := core.UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatalf("seed %d: unmarshal: %v", seed, err)
		}

		resumed := base
		resumed.Resume = cp
		dep, err := core.Approx(context.Background(), in, resumed)
		if err != nil {
			t.Fatalf("seed %d: resume: %v", seed, err)
		}
		a, errA := json.Marshal(full)
		b, errB := json.Marshal(dep)
		if errA != nil || errB != nil {
			t.Fatalf("seed %d: marshal deployments: %v %v", seed, errA, errB)
		}
		if string(a) != string(b) {
			t.Errorf("seed %d: resumed deployment differs from uninterrupted run\nfull:    %s\nresumed: %s",
				seed, a, b)
		}
	}
}

// TestCancellationPromptOnPaperInstance runs approAlg on the paper's Fig. 6
// configuration (n=3000, K=20, m=36) — minutes of work if left alone — and
// checks that cancellation tears the run down promptly and without leaking
// goroutines, returning a resumable best-so-far deployment.
func TestCancellationPromptOnPaperInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized instance")
	}
	sc, err := workload.BuildScenario(workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, sc)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	dep, err := core.Approx(ctx, in, core.Options{S: 3})
	elapsed := time.Since(start)
	// Drain latency is bounded by each worker's current chunk (16 subset
	// evaluations); give CI machines generous slack on top.
	if elapsed > 10*time.Second {
		t.Errorf("cancelled run took %s to drain", elapsed)
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dep == nil || dep.Status != core.StatusStopped || dep.Checkpoint == nil {
		t.Fatalf("want a stopped, checkpointed deployment, got %+v", dep)
	}
	if dep.Checkpoint.Cursor <= 0 {
		t.Errorf("100ms of paper-sized work processed nothing (cursor %d)", dep.Checkpoint.Cursor)
	}
	// A non-empty partial result must itself be feasible.
	if dep.Served > 0 {
		if rep := CheckDeployment(in, dep); !rep.OK() {
			t.Errorf("partial deployment violates the oracle: %s", rep)
		}
	}

	// All solver goroutines (workers and progress monitor) must be gone; the
	// runtime reaps them asynchronously, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAlreadyCancelledContextIsImmediate is the acceptance bound from the
// run-control design: a context that is already cancelled must come back in
// milliseconds even on the paper-sized instance, because workers check the
// context before claiming any work.
func TestAlreadyCancelledContextIsImmediate(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-sized instance")
	}
	sc, err := workload.BuildScenario(workload.Params{})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, sc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	dep, err := core.Approx(ctx, in, core.Options{S: 3})
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if dep == nil || dep.Status != core.StatusStopped {
		t.Fatalf("want a stopped deployment, got %+v", dep)
	}
	// Instance precomputation is done by BuildInstance above; the solver call
	// itself only spins up workers that immediately drain.
	if elapsed > time.Second {
		t.Errorf("already-cancelled run took %s, want milliseconds", elapsed)
	}
}
