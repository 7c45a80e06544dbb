package portfolio

import (
	"context"
	"encoding/json"
	"fmt"
	"github.com/uav-coverage/uavnet/internal/graph"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/workload"
)

// testInstance builds a small random instance, every draw taken from the
// seed so a failure replays exactly: a 3-5 x 2 grid of 500 m cells, 2-5 UAVs
// with small capacities, and 10-40 users.
func testInstance(tb testing.TB, seed int64) *core.Instance {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	cols := 3 + r.Intn(3)
	grid := geom.Grid{Length: float64(cols) * 500, Width: 1000, Side: 500, Altitude: 300}
	dist := []workload.Distribution{workload.FatTailed, workload.Uniform, workload.SingleHotspot}[r.Intn(3)]
	positions, err := workload.UsersRand(r, grid, 10+r.Intn(31), dist, workload.UserOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	caps, err := workload.CapacitiesRand(r, 2+r.Intn(4), 1, 8)
	if err != nil {
		tb.Fatal(err)
	}
	sc := &core.Scenario{
		Grid:     grid,
		UAVRange: 750,
		Channel:  channel.DefaultParams(),
	}
	for _, p := range positions {
		sc.Users = append(sc.Users, core.User{Pos: p})
	}
	for i, c := range caps {
		sc.UAVs = append(sc.UAVs, core.UAV{
			Name:      fmt.Sprintf("uav-%d", i),
			Capacity:  c,
			Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
			UserRange: 400,
		})
	}
	in, err := core.NewInstance(sc)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

func TestMembersCanonicalOrder(t *testing.T) {
	t.Parallel()
	want := []string{"anneal", "tabu", "grasp", "genetic"}
	got := Members()
	if len(got) != len(want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("Members()[%d] = %q, want %q", i, got[i], name)
		}
		if memberIndex(name) != i {
			t.Errorf("memberIndex(%q) = %d, want %d", name, memberIndex(name), i)
		}
	}
	if memberIndex("enum") != -1 {
		t.Errorf("memberIndex(enum) = %d, want -1", memberIndex("enum"))
	}
}

func TestSolverMembers(t *testing.T) {
	t.Parallel()
	all, err := SolverMembers("portfolio")
	if err != nil || len(all) != 4 {
		t.Fatalf("SolverMembers(portfolio) = %v, %v", all, err)
	}
	one, err := SolverMembers("tabu")
	if err != nil || len(one) != 1 || one[0] != "tabu" {
		t.Fatalf("SolverMembers(tabu) = %v, %v", one, err)
	}
	if _, err := SolverMembers("bogus"); err == nil {
		t.Fatal("SolverMembers(bogus) succeeded")
	}
}

func TestSeedSubsetAndRepairAdmissible(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 20; seed++ {
		in := testInstance(t, seed)
		s := 2
		if k := in.Scenario.K(); s > k {
			s = k
		}
		p, err := newProblem(in, s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for off := 0; off < p.m; off++ {
			a := p.seedSubset(off)
			if a == nil {
				t.Fatalf("seed %d: seedSubset(%d) found nothing", seed, off)
			}
			if !p.admissible(a) {
				t.Fatalf("seed %d: seedSubset(%d) = %v not admissible", seed, off, a)
			}
		}
		r := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 50; trial++ {
			junk := make([]int, 1+r.Intn(2*s+2))
			for i := range junk {
				junk[i] = r.Intn(p.m+2) - 1 // includes out-of-range cells
			}
			if rep := p.repair(junk, r.Intn(p.m)); rep != nil && !p.admissible(rep) {
				t.Fatalf("seed %d: repair(%v) = %v not admissible", seed, junk, rep)
			}
		}
	}
}

// TestRaceDeterminism checks the package's determinism contract: same
// scenario + same seed + same budget reproduce the deployment byte for byte,
// for every single member and for the full race.
func TestRaceDeterminism(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 11)
	for _, solver := range append(Members(), "portfolio") {
		solver := solver
		t.Run(solver, func(t *testing.T) {
			t.Parallel()
			opts := core.Options{S: 2, Solver: solver, SolverBudget: 300, Seed: 7}
			var blobs [2][]byte
			for i := range blobs {
				dep, err := Race(context.Background(), in, opts)
				if err != nil {
					t.Fatal(err)
				}
				if dep.Checkpoint != nil {
					t.Fatal("uninterrupted run returned a checkpoint")
				}
				if solver != "portfolio" && dep.Algorithm != solver {
					t.Fatalf("Algorithm = %q, want %q", dep.Algorithm, solver)
				}
				if solver == "portfolio" && !strings.HasPrefix(dep.Algorithm, "portfolio/") {
					t.Fatalf("Algorithm = %q, want portfolio/<member>", dep.Algorithm)
				}
				if blobs[i], err = json.Marshal(dep); err != nil {
					t.Fatal(err)
				}
			}
			if string(blobs[0]) != string(blobs[1]) {
				t.Fatalf("same-seed runs differ:\n%s\nvs\n%s", blobs[0], blobs[1])
			}
		})
	}
}

// TestRaceSingleMemberStreamStable checks that a member draws the same RNG
// stream alone as inside the full race: the anneal-only deployment equals a
// portfolio deployment whenever anneal wins the race — more fundamentally,
// the member seed is keyed on the canonical index, not the racing lineup.
func TestRaceMemberSeedIndependentOfLineup(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 12)
	dep, err := Race(context.Background(), in, core.Options{S: 2, Solver: "portfolio", SolverBudget: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	winner := strings.TrimPrefix(dep.Algorithm, "portfolio/")
	solo, err := Race(context.Background(), in, core.Options{S: 2, Solver: winner, SolverBudget: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if solo.Served != dep.Served {
		t.Fatalf("%s alone served %d, inside the race %d", winner, solo.Served, dep.Served)
	}
}

// TestRaceResumeByteIdentity interrupts a race mid-run, resumes it from the
// checkpoint, and requires the resumed deployment to be byte-identical to an
// uninterrupted run with the same options.
func TestRaceResumeByteIdentity(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 13)
	opts := core.Options{S: 2, Solver: "portfolio", SolverBudget: 4000, Seed: 5}

	full, err := Race(context.Background(), in, opts)
	if err != nil || full.Checkpoint != nil {
		t.Fatalf("uninterrupted run: err=%v cp=%v", err, full.Checkpoint)
	}
	wantJSON, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt once a few evaluations are in: the progress monitor drives
	// the cancellation, so the cut lands at an arbitrary step boundary.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	iopts := opts
	iopts.ProgressInterval = time.Millisecond
	var cancelled atomic.Bool
	iopts.Progress = func(p core.Progress) {
		if p.Evaluated > 200 && !cancelled.Swap(true) {
			cancel()
		}
	}
	stopDep, err := Race(ctx, in, iopts)
	if err == nil && stopDep.Checkpoint == nil {
		t.Skip("run finished before the interrupt landed; nothing to resume")
	}
	if err == nil {
		t.Fatal("stopped run returned no error")
	}
	if stopDep == nil || stopDep.Status != core.StatusStopped || stopDep.Checkpoint == nil {
		t.Fatalf("stopped run returned %+v, want a StatusStopped deployment with a checkpoint", stopDep)
	}

	// A checkpoint must round-trip through its JSON form unharmed.
	blob, err := stopDep.Checkpoint.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	ropts := opts
	ropts.Resume = restored
	resumed, err := Race(context.Background(), in, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Checkpoint != nil {
		t.Fatal("resumed run returned a checkpoint despite completing")
	}
	gotJSON, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("resumed deployment differs from uninterrupted:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
}

func TestRaceRejectsEnumOptions(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 14)
	base := core.Options{S: 2, Solver: "anneal", SolverBudget: 50}
	cases := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"enum solver", func(o *core.Options) { o.Solver = "enum" }},
		{"unknown solver", func(o *core.Options) { o.Solver = "hillclimb" }},
		{"max subsets", func(o *core.Options) { o.MaxSubsets = 10 }},
		{"stop after", func(o *core.Options) { o.StopAfter = 10 }},
		{"shard", func(o *core.Options) { o.Shard.Count = 2 }},
		{"required cells", func(o *core.Options) { o.RequiredCells = []int{0} }},
	}
	for _, tc := range cases {
		opts := base
		tc.mutate(&opts)
		if _, err := Race(context.Background(), in, opts); err == nil {
			t.Errorf("%s: Race accepted the option", tc.name)
		}
	}
}

// TestCheckpointValidateRejectsMismatch interrupts a run and then tries to
// resume it under each differing option, expecting a refusal.
func TestCheckpointValidateRejectsMismatch(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 15)
	opts := core.Options{S: 2, Solver: "portfolio", SolverBudget: 100000, Seed: 9}
	ctx, cancel := context.WithCancel(context.Background())
	iopts := opts
	iopts.ProgressInterval = time.Millisecond
	var cancelled atomic.Bool
	iopts.Progress = func(p core.Progress) {
		if p.Evaluated > 50 && !cancelled.Swap(true) {
			cancel()
		}
	}
	dep, err := Race(ctx, in, iopts)
	cancel()
	if dep == nil || dep.Checkpoint == nil {
		t.Fatalf("no checkpoint from interrupted run (err=%v)", err)
	}
	cp := dep.Checkpoint

	cases := []struct {
		name   string
		mutate func(o *core.Options, c *core.Checkpoint)
	}{
		{"seed", func(o *core.Options, c *core.Checkpoint) { o.Seed++ }},
		{"budget", func(o *core.Options, c *core.Checkpoint) { o.SolverBudget++ }},
		{"solver", func(o *core.Options, c *core.Checkpoint) { o.Solver = "anneal" }},
		{"algorithm", func(o *core.Options, c *core.Checkpoint) { c.Algorithm = core.KindEnum }},
		{"fingerprint", func(o *core.Options, c *core.Checkpoint) { c.ScenarioFingerprint++ }},
		{"member order", func(o *core.Options, c *core.Checkpoint) {
			c.Members[0].Name, c.Members[1].Name = c.Members[1].Name, c.Members[0].Name
		}},
		{"overspent member", func(o *core.Options, c *core.Checkpoint) { c.Members[0].Evals = c.Budget + 1 }},
	}
	for _, tc := range cases {
		mutated := *cp
		mutated.Members = append([]core.SolverState(nil), cp.Members...)
		o := opts
		tc.mutate(&o, &mutated)
		o.Resume = &mutated
		if _, err := Race(context.Background(), in, o); err == nil {
			t.Errorf("%s: resume accepted a mismatched checkpoint", tc.name)
		}
	}
}

// TestUnmarshalCheckpointRejectsWrongAlgorithm checks both gates a foreign
// checkpoint meets on its way into a race: decoding rejects unknown kinds,
// and Race refuses an enumeration checkpoint with an error naming it.
func TestUnmarshalCheckpointRejectsWrongAlgorithm(t *testing.T) {
	t.Parallel()
	if _, err := core.UnmarshalCheckpoint([]byte(`{"algorithm":"MCS"}`)); err == nil {
		t.Fatal("UnmarshalCheckpoint accepted a foreign algorithm")
	}
	if _, err := core.UnmarshalCheckpoint([]byte(`not json`)); err == nil {
		t.Fatal("UnmarshalCheckpoint accepted junk")
	}
	enumCP, err := core.UnmarshalCheckpoint([]byte(`{"algorithm":"approAlg","scenario_fingerprint":1,"s":2,"seed":0,"total_subsets":10,"cursor":3,"evaluated":3,"pruned":0}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{S: 2, Solver: "anneal", SolverBudget: 50, Resume: enumCP}
	if _, err := Race(context.Background(), testInstance(t, 16), opts); err == nil || !strings.Contains(err.Error(), `"approAlg"`) {
		t.Fatalf("Race resumed an enumeration checkpoint: %v", err)
	}
}

// admissible reports whether the full subset is inside the search region:
// sorted distinct cells, one component, pairwise maxHop+1 <= K.
func (p *problem) admissible(a []int) bool {
	if len(a) != p.s {
		return false
	}
	for i, c := range a {
		if c < 0 || c >= p.m || p.compOf[c] < 0 {
			return false
		}
		if i > 0 && a[i-1] >= c {
			return false
		}
		if i > 0 && p.compOf[a[i-1]] != p.compOf[c] {
			return false
		}
	}
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			d := p.in.Hop[a[i]][a[j]]
			if d == graph.Unreachable || d+1 > p.k {
				return false
			}
		}
	}
	return true
}
