package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/uav-coverage/uavnet/internal/geom"
)

// TestShardSpecRangePartition is the splitter's contract: for any total and
// count, the shard ranges tile [0, total) exactly, in order, each within one
// index of total/count — including the saturated-binomial total, where naive
// i*total/count arithmetic would overflow.
func TestShardSpecRangePartition(t *testing.T) {
	totals := []int64{0, 1, 2, 7, 560, 7140, 1 << 40, math.MaxInt64}
	counts := []int{1, 2, 3, 4, 7, 8, 64, 1000}
	for _, total := range totals {
		for _, count := range counts {
			var covered int64
			for i := 0; i < count; i++ {
				r := ShardSpec{Index: i, Count: count}.Range(total)
				if r.Start != covered {
					t.Fatalf("total %d count %d: shard %d starts at %d, want %d", total, count, i, r.Start, covered)
				}
				if r.End < r.Start {
					t.Fatalf("total %d count %d: shard %d inverted [%d, %d)", total, count, i, r.Start, r.End)
				}
				if total < math.MaxInt64 { // want+1 would overflow at the saturation point
					want := total / int64(count)
					if sz := r.Len(); sz < want || sz > want+1 {
						t.Fatalf("total %d count %d: shard %d size %d, want %d or %d", total, count, i, sz, want, want+1)
					}
				}
				covered = r.End
			}
			if covered != total {
				t.Fatalf("total %d count %d: shards cover %d", total, count, covered)
			}
		}
	}
	if r := (ShardSpec{}).Range(560); r != (Span{Start: 0, End: 560}) {
		t.Fatalf("zero spec range = %+v", r)
	}
	for _, bad := range []ShardSpec{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}, {Index: 3, Count: 0}} {
		if err := (Options{Shard: bad}).Validate(); err == nil {
			t.Errorf("spec %+v passed Validate", bad)
		}
	}
}

func TestSpanHelpers(t *testing.T) {
	work := []Span{{Start: 10, End: 20}, {Start: 30, End: 35}}
	if n := spanUnits(work); n != 15 {
		t.Fatalf("spanUnits = %d", n)
	}
	for _, tc := range []struct{ x, want int64 }{{5, 0}, {10, 0}, {15, 5}, {20, 10}, {25, 10}, {32, 12}, {40, 15}} {
		if got := unitsBefore(work, tc.x); got != tc.want {
			t.Errorf("unitsBefore(%d) = %d, want %d", tc.x, got, tc.want)
		}
	}
	if rem := consumeUnits(work, 0); len(rem) != 2 || rem[0] != work[0] {
		t.Errorf("consumeUnits(0) = %v", rem)
	}
	if rem := consumeUnits(work, 12); len(rem) != 1 || rem[0] != (Span{Start: 32, End: 35}) {
		t.Errorf("consumeUnits(12) = %v", rem)
	}
	if rem := consumeUnits(work, 15); rem != nil {
		t.Errorf("consumeUnits(15) = %v", rem)
	}
	got := normalizeSpans([]Span{{Start: 30, End: 35}, {Start: 5, End: 5}, {Start: 10, End: 20}, {Start: 20, End: 30}})
	if len(got) != 1 || got[0] != (Span{Start: 10, End: 35}) {
		t.Errorf("normalizeSpans = %v", got)
	}
}

// shardedCheckpoints solves every shard of a count-way split and returns the
// partial checkpoints, verifying the per-shard contract along the way.
func shardedCheckpoints(t *testing.T, in *Instance, opts Options, count int) []*Checkpoint {
	t.Helper()
	cps := make([]*Checkpoint, count)
	for i := 0; i < count; i++ {
		o := opts
		o.Shard = ShardSpec{Index: i, Count: count}
		dep, err := Approx(context.Background(), in, o)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, count, err)
		}
		if dep.Status != StatusPartial {
			t.Fatalf("shard %d/%d: status %q, want %q", i, count, dep.Status, StatusPartial)
		}
		cp := dep.Checkpoint
		if cp == nil || cp.Shard == nil {
			t.Fatalf("shard %d/%d: no tagged checkpoint", i, count)
		}
		if !cp.Complete() {
			t.Fatalf("shard %d/%d: checkpoint incomplete: cursor %d, remaining %v", i, count, cp.Cursor, cp.RemainingSpans())
		}
		if r := cp.Range(); cp.Cursor != r.End {
			t.Fatalf("shard %d/%d: cursor %d, want range end %d", i, count, cp.Cursor, r.End)
		}
		cps[i] = cp
	}
	return cps
}

// mustJSON marshals a deployment for byte-comparison.
func mustJSON(t *testing.T, dep *Deployment) string {
	t.Helper()
	data, err := json.Marshal(dep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestShardMergeMatchesUnsharded solves the run-control scenario sharded
// count-ways, merges, and requires the result to serialize identically to
// the unsharded run — exhaustive and sampled modes both.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	in := runControlScenario(t)
	variants := []struct {
		name string
		opts Options
	}{
		{"exhaustive", Options{S: 3, Workers: 2}},
		{"sampled", Options{S: 3, Workers: 2, MaxSubsets: 120, Seed: 5}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			full, err := Approx(context.Background(), in, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := mustJSON(t, full)
			for _, count := range []int{1, 2, 3, 7} {
				cps := shardedCheckpoints(t, in, v.opts, count)
				merged, err := MergeCheckpoints(in, v.opts, cps)
				if err != nil {
					t.Fatalf("count %d: merge: %v", count, err)
				}
				if merged.Status != StatusComplete {
					t.Fatalf("count %d: merged status %q", count, merged.Status)
				}
				if got := mustJSON(t, merged); got != want {
					t.Errorf("count %d: merged deployment differs\nwant %s\ngot  %s", count, want, got)
				}
			}
		})
	}
}

// TestMergedCheckpointMultiSpanResume interrupts two of three shards
// mid-range, merges the partials into a holey checkpoint, and resumes it
// unsharded: the run must re-enumerate exactly the holes and finish with the
// uninterrupted deployment. This is the multi-process crash-recovery path —
// some workers die, the merge still makes progress durable.
func TestMergedCheckpointMultiSpanResume(t *testing.T) {
	in := runControlScenario(t)
	opts := Options{S: 3, Workers: 2}
	full, err := Approx(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := full.SubsetsEvaluated + full.SubsetsPruned

	cps := make([]*Checkpoint, 3)
	for i := 0; i < 3; i++ {
		o := opts
		o.Shard = ShardSpec{Index: i, Count: 3}
		r := o.Shard.Range(total)
		if i != 1 {
			// Shards 0 and 2 stop halfway through their own ranges.
			o.StopAfter = r.Start + r.Len()/2
		}
		dep, err := Approx(context.Background(), in, o)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		wantStatus := StatusStopped
		if i == 1 {
			wantStatus = StatusPartial
		}
		if dep.Status != wantStatus || dep.Checkpoint == nil {
			t.Fatalf("shard %d: status %q (checkpoint %v), want %q", i, dep.Status, dep.Checkpoint != nil, wantStatus)
		}
		cps[i] = dep.Checkpoint
	}

	merged, err := MergeCheckpoints(in, opts, cps)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Status != StatusStopped || merged.Checkpoint == nil {
		t.Fatalf("merged status %q, want stopped with checkpoint", merged.Status)
	}
	mcp := merged.Checkpoint
	rem := mcp.RemainingSpans()
	if len(rem) != 2 {
		t.Fatalf("remaining spans %v, want the two half-finished shard tails", rem)
	}
	if mcp.Cursor != rem[0].Start {
		t.Fatalf("merged cursor %d, want first remaining start %d", mcp.Cursor, rem[0].Start)
	}

	// Round-trip through JSON as the CLI does, then resume unsharded.
	data, err := mcp.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	resumed := opts
	resumed.Resume = cp
	got, err := Approx(context.Background(), in, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusComplete {
		t.Fatalf("resumed status %q", got.Status)
	}
	if a, b := mustJSON(t, full), mustJSON(t, got); a != b {
		t.Errorf("multi-span resume differs from uninterrupted run\nwant %s\ngot  %s", a, b)
	}

	// Stopping again mid-holes must produce another valid resumable state.
	again := resumed
	again.StopAfter = rem[0].Start + 1
	part, err := Approx(context.Background(), in, again)
	if err != nil {
		t.Fatal(err)
	}
	if part.Status != StatusStopped || part.Checkpoint == nil {
		t.Fatalf("re-stopped status %q", part.Status)
	}
	final := opts
	final.Resume = part.Checkpoint
	dep, err := Approx(context.Background(), in, final)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, full), mustJSON(t, dep); a != b {
		t.Errorf("stop-again resume differs from uninterrupted run")
	}
}

// TestMergeCheckpointsRejections is the table of invalid merge inputs: every
// case must be refused with a diagnostic mentioning the cause, because a
// silently-accepted bad merge would forfeit the approximation guarantee.
func TestMergeCheckpointsRejections(t *testing.T) {
	in := runControlScenario(t)
	opts := Options{S: 3, Workers: 2}
	cps := shardedCheckpoints(t, in, opts, 3)
	half := shardedCheckpoints(t, in, opts, 2)
	// Seed 0 keeps the seed field equal to the exhaustive run's, so the
	// mixed-mode rejection below trips on the subset cap, not the seed.
	sampledCps := shardedCheckpoints(t, in, Options{S: 3, Workers: 2, MaxSubsets: 120}, 3)

	// clone deep-copies a checkpoint through its JSON form.
	clone := func(cp *Checkpoint) *Checkpoint {
		data, err := cp.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		out, err := UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := []struct {
		name string
		opts Options
		cps  func() []*Checkpoint
		want string
	}{
		{"empty set", opts, func() []*Checkpoint { return nil }, "no checkpoints"},
		{"nil checkpoint", opts, func() []*Checkpoint { return []*Checkpoint{cps[0], nil, cps[2]} }, "is nil"},
		{"opts with resume", Options{S: 3, Workers: 2, Resume: cps[0]}, func() []*Checkpoint { return cps }, "Resume"},
		{"opts with shard", Options{S: 3, Workers: 2, Shard: ShardSpec{Index: 0, Count: 3}}, func() []*Checkpoint { return cps }, "shard"},
		{"fingerprint mismatch", opts, func() []*Checkpoint {
			bad := clone(cps[1])
			bad.ScenarioFingerprint++
			return []*Checkpoint{cps[0], bad, cps[2]}
		}, "fingerprint"},
		{"wrong s", Options{S: 2, Workers: 2}, func() []*Checkpoint { return cps }, "s is"},
		{"mixed sampled and exhaustive", opts, func() []*Checkpoint {
			return []*Checkpoint{cps[0], sampledCps[1], cps[2]}
		}, "max-subsets"},
		{"duplicate shard", opts, func() []*Checkpoint {
			return []*Checkpoint{cps[0], cps[1], cps[1], cps[2]}
		}, "duplicate shard"},
		{"gap in coverage", opts, func() []*Checkpoint {
			return []*Checkpoint{cps[0], cps[2]}
		}, "gap"},
		{"overlapping ranges", opts, func() []*Checkpoint {
			return []*Checkpoint{half[0], cps[1], cps[2]}
		}, "overlap"},
		{"missing tail", opts, func() []*Checkpoint {
			return []*Checkpoint{cps[0], cps[1]}
		}, "cover only"},
		{"tampered shard range", opts, func() []*Checkpoint {
			bad := clone(cps[1])
			bad.Shard.Start--
			return []*Checkpoint{cps[0], bad, cps[2]}
		}, "records range"},
		{"remaining on shard checkpoint", opts, func() []*Checkpoint {
			bad := clone(cps[1])
			bad.Remaining = []Span{{Start: bad.Shard.Start, End: bad.Shard.Start + 1}}
			bad.Cursor = bad.Shard.Start
			return []*Checkpoint{cps[0], bad, cps[2]}
		}, "merged checkpoints"},
		{"best outside processed set", opts, func() []*Checkpoint {
			bad := clone(cps[0])
			if bad.Best == nil {
				bad.Best = &CheckpointBest{Served: 1, Locs: []int{0}, NSel: 1}
			}
			bad.Best.Idx = bad.Shard.End // first index of the next shard
			return []*Checkpoint{bad, cps[1], cps[2]}
		}, "outside the processed set"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := MergeCheckpoints(in, tc.opts, tc.cps())
			if err == nil {
				t.Fatal("merge accepted an invalid set")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// fuzzMergeState lazily builds one instance plus a pool of genuine partial
// checkpoints (every shard of every count up to 6) that the fuzzer mixes,
// duplicates, drops, and tampers with.
var fuzzMergeState struct {
	once  sync.Once
	in    *Instance
	opts  Options
	cps   map[[2]int]*Checkpoint
	total int64
	err   error
}

func fuzzMergeInit() error {
	st := &fuzzMergeState
	st.once.Do(func() {
		r := rand.New(rand.NewSource(7))
		var users []geom.Point2
		for i := 0; i < 60; i++ {
			users = append(users, geom.Point2{X: r.Float64() * 2000, Y: r.Float64() * 2000})
		}
		in, err := NewInstance(testScenario(users, []int{9, 7, 5, 4, 3}))
		if err != nil {
			st.err = err
			return
		}
		st.in = in
		st.opts = Options{S: 3, Workers: 2}
		st.cps = make(map[[2]int]*Checkpoint)
		for count := 1; count <= 6; count++ {
			for idx := 0; idx < count; idx++ {
				o := st.opts
				o.Shard = ShardSpec{Index: idx, Count: count}
				dep, err := Approx(context.Background(), in, o)
				if err != nil {
					st.err = err
					return
				}
				cp := dep.Checkpoint
				st.cps[[2]int{count, idx}] = cp
				st.total = cp.Total
			}
		}
	})
	return st.err
}

// FuzzMergeCheckpoints feeds MergeCheckpoints arbitrary mixtures of genuine
// partial checkpoints — across shard counts, with duplicates, omissions, and
// range tampering — and asserts the safety property the shard protocol
// stands on: merge accepts a set only if its ranges exactly partition
// [0, total) and no checkpoint was tampered with.
func FuzzMergeCheckpoints(f *testing.F) {
	f.Add([]byte{1, 0})                   // the whole space as one shard: valid
	f.Add([]byte{3, 0, 3, 1, 3, 2})       // clean 3-way split: valid
	f.Add([]byte{2, 0, 3, 1, 3, 2})       // overlap: 2-way shard 0 overlaps 3-way shard 1
	f.Add([]byte{3, 0, 3, 2})             // gap: shard 1 of 3 missing
	f.Add([]byte{3, 0, 3, 1, 3, 1, 3, 2}) // duplicate shard
	f.Add([]byte{4, 0, 4, 1, 4, 2, 4, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := fuzzMergeInit(); err != nil {
			t.Fatal(err)
		}
		st := &fuzzMergeState
		var picked []*Checkpoint
		var ranges []Span
		tampered := false
		for i := 0; i+1 < len(data) && len(picked) < 12; i += 2 {
			count := 1 + int(data[i])%6
			idx := int(data[i+1]) % count
			cp := st.cps[[2]int{count, idx}]
			if data[i] >= 128 {
				// Tamper: shift the recorded range bounds by one. validate
				// must catch the disagreement with the recomputed split.
				bad := *cp
				shard := *bad.Shard
				shard.Start++
				bad.Shard = &shard
				cp = &bad
				tampered = true
			}
			picked = append(picked, cp)
			ranges = append(ranges, ShardSpec{Index: idx, Count: count}.Range(st.total))
		}
		dep, err := MergeCheckpoints(st.in, st.opts, picked)
		if err != nil {
			return // rejected: nothing to assert
		}
		if tampered {
			t.Fatalf("merge accepted a tampered checkpoint set")
		}
		if dep == nil || dep.Status != StatusComplete {
			t.Fatalf("merge of complete shards returned status %v", dep)
		}
		// Accepted: the picked ranges must exactly partition [0, total).
		sort.Slice(ranges, func(i, j int) bool {
			if ranges[i].Start != ranges[j].Start {
				return ranges[i].Start < ranges[j].Start
			}
			return ranges[i].End < ranges[j].End
		})
		covered := int64(0)
		for _, r := range ranges {
			if r.Start != covered {
				t.Fatalf("merge accepted a non-partition: range [%d, %d) after covering [0, %d)", r.Start, r.End, covered)
			}
			covered = r.End
		}
		if covered != st.total {
			t.Fatalf("merge accepted coverage [0, %d) of [0, %d)", covered, st.total)
		}
	})
}
