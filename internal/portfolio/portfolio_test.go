package portfolio

import (
	"context"
	"encoding/json"
	"fmt"
	"github.com/uav-coverage/uavnet/internal/graph"
	"math/rand"
	"strings"
	"sync"
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
// for every single member and for the full race. The second run is cut by a
// StopAfter equal to the budget, which every member reaches by finishing, so
// it completes too.
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
				if dep.Status != core.StatusComplete || dep.Checkpoint != nil {
					t.Fatalf("run with StopAfter %d ended %q with checkpoint %v", opts.StopAfter, dep.Status, dep.Checkpoint)
				}
				opts.StopAfter = opts.SolverBudget
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

// TestRaceMemberSeedIndependentOfLineup checks that a member runs the same
// trajectory alone as inside the full race: the member seed is keyed on the
// canonical index, not the racing lineup, so the anneal-only deployment
// equals a portfolio deployment whenever anneal wins. The StopAfter cut reads
// only the member's own evaluation count, so each member's state in a cut
// race's checkpoint equals the state of the same member cut alone, and lies
// within one step past the cut.
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

	opts := core.Options{S: 2, Solver: "portfolio", SolverBudget: 1000, StopAfter: 700, Seed: 3}
	race := stoppedState(t, in, opts)
	for i, name := range Members() {
		opts.Solver = name
		got, want := race[i], stoppedState(t, in, opts)[0]
		if got != want {
			t.Errorf("%s cut inside the race:\n%s\nalone:\n%s", name, got, want)
		}
		var st core.SolverState
		if err := json.Unmarshal([]byte(got), &st); err != nil {
			t.Fatal(err)
		}
		if st.Evals < opts.StopAfter || st.Evals >= opts.StopAfter+tabuWidth {
			t.Errorf("%s stopped at %d evaluations, want [%d, %d)", name, st.Evals, opts.StopAfter, opts.StopAfter+tabuWidth)
		}
	}
}

// stoppedState runs a race that StopAfter must cut and returns its members'
// checkpointed states as JSON.
func stoppedState(t *testing.T, in *core.Instance, opts core.Options) []string {
	t.Helper()
	dep, err := Race(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Status != core.StatusStopped || dep.Checkpoint == nil {
		t.Fatalf("%s cut at %d ended %q; want a stopped run with a checkpoint", opts.Solver, opts.StopAfter, dep.Status)
	}
	var out []string
	for _, st := range dep.Checkpoint.Members {
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(blob))
	}
	return out
}

// TestRaceResumeByteIdentity solves every member and the full race as a
// chain of StopAfter slices, each resuming the last one's checkpoint after a
// JSON round trip, and requires the chain to end byte-identical to an
// uninterrupted run with the same options.
func TestRaceResumeByteIdentity(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 13)
	for _, solver := range append(Members(), "portfolio") {
		t.Run(solver, func(t *testing.T) {
			t.Parallel()
			opts := core.Options{S: 2, Solver: solver, SolverBudget: 4000, Seed: 5}
			full, err := Race(context.Background(), in, opts)
			if err != nil || full.Checkpoint != nil {
				t.Fatalf("uninterrupted run: err=%v cp=%v", err, full.Checkpoint)
			}
			wantJSON, err := json.Marshal(full)
			if err != nil {
				t.Fatal(err)
			}
			resumed, slices := raceInSlices(t, in, opts, 350)
			if slices < 12 {
				t.Fatalf("the chain took %d slices, want at least 12", slices)
			}
			gotJSON, err := json.Marshal(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("resumed deployment differs from uninterrupted:\n%s\nvs\n%s", gotJSON, wantJSON)
			}
		})
	}
}

// TestRaceResumedAtCutReportsBest resumes a race at the StopAfter cut its
// checkpoint was taken at. No member steps, yet the final progress snapshot
// must report the best the restored members hold: the deployment's served
// count.
func TestRaceResumedAtCutReportsBest(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 13)
	opts := core.Options{S: 2, Solver: "portfolio", SolverBudget: 4000, Seed: 5, StopAfter: 2000}
	first, err := Race(context.Background(), in, opts)
	if err != nil || first.Checkpoint == nil {
		t.Fatalf("first slice: err=%v cp=%v", err, first.Checkpoint)
	}
	blob, err := first.Checkpoint.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Resume, err = core.UnmarshalCheckpoint(blob); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var last core.Progress
	opts.ProgressInterval = time.Hour // only the final snapshot
	opts.Progress = func(p core.Progress) {
		mu.Lock()
		defer mu.Unlock()
		last = p
	}
	dep, err := Race(context.Background(), in, opts)
	if err != nil || dep.Status != core.StatusStopped {
		t.Fatalf("resumed at the cut: status %q, err %v", dep.Status, err)
	}
	if dep.SubsetsEvaluated != first.SubsetsEvaluated {
		t.Fatalf("resumed at the cut evaluated %d subsets, the checkpoint %d", dep.SubsetsEvaluated, first.SubsetsEvaluated)
	}
	mu.Lock()
	defer mu.Unlock()
	if dep.Served == 0 || last.BestServed != dep.Served {
		t.Fatalf("final progress reads BestServed %d, the deployment serves %d", last.BestServed, dep.Served)
	}
}

// raceInSlices runs opts as a chain of StopAfter slices and returns the
// complete deployment and the number of slices. Each slice resumes the last
// one's checkpoint, and its cut lies slice evaluations past the checkpoint's
// furthest member, as the job server's test seam cuts. Each cut slice must
// stop with a nil error and a checkpoint that survives a JSON round trip.
// Each slice's progress must count from the checkpoint on: no snapshot
// reads Done below the checkpoint's frontier, and the last reads ScopeDone
// equal to the evaluations this slice spent.
func raceInSlices(t *testing.T, in *core.Instance, opts core.Options, slice int64) (*core.Deployment, int) {
	t.Helper()
	for n := 1; ; n++ {
		var from int64
		opts.StopAfter = slice
		if cp := opts.Resume; cp != nil {
			from, _ = cp.Frontier()
			for _, m := range cp.Members {
				opts.StopAfter = max(opts.StopAfter, m.Evals+slice)
			}
		}
		var mu sync.Mutex
		var last core.Progress
		opts.ProgressInterval = time.Millisecond
		opts.Progress = func(p core.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Done < from {
				t.Errorf("slice %d: progress read Done %d, below the checkpoint's %d", n, p.Done, from)
			}
			last = p
		}
		dep, err := Race(context.Background(), in, opts)
		if err != nil {
			t.Fatalf("slice %d: %v", n, err)
		}
		spent := dep.SubsetsEvaluated
		if dep.Checkpoint != nil {
			spent, _ = dep.Checkpoint.Frontier()
		}
		mu.Lock()
		if spent -= from; last.ScopeDone != spent {
			t.Errorf("slice %d: progress read ScopeDone %d, the slice spent %d", n, last.ScopeDone, spent)
		}
		mu.Unlock()
		if dep.Status != core.StatusStopped {
			if dep.Status != core.StatusComplete || dep.Checkpoint != nil {
				t.Fatalf("slice %d ended %q with checkpoint %v", n, dep.Status, dep.Checkpoint)
			}
			return dep, n
		}
		blob, err := dep.Checkpoint.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if opts.Resume, err = core.UnmarshalCheckpoint(blob); err != nil {
			t.Fatal(err)
		}
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

// TestCheckpointValidateRejectsMismatch cuts a run with StopAfter and then
// tries to resume it under each differing option, or with a member count
// edited out of range, expecting a refusal.
func TestCheckpointValidateRejectsMismatch(t *testing.T) {
	t.Parallel()
	in := testInstance(t, 15)
	opts := core.Options{S: 2, Solver: "portfolio", SolverBudget: 400, Seed: 9}
	cut := opts
	cut.StopAfter = 50
	dep, err := Race(context.Background(), in, cut)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Checkpoint == nil {
		t.Fatal("no checkpoint from the cut run")
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
		{"negative member evaluations", func(o *core.Options, c *core.Checkpoint) { c.Members[0].Evals = -1000 }},
		{"negative member steps", func(o *core.Options, c *core.Checkpoint) { c.Members[1].Steps = -1 }},
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
