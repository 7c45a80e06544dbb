package core

// Horizontal sharding of the anchor-subset enumeration. The run-control
// layer (approx.go, runcontrol.go) already makes the enumeration a pure
// function of (Seed, index) claimed in contiguous chunks; this file lifts
// that into a first-class shard protocol: ShardSpec deterministically
// partitions the index range [0, C(m,s)) — or [0, MaxSubsets) in sampled
// mode — into contiguous sub-ranges, Options.Shard restricts Approx to one
// of them (emitting a partial Checkpoint tagged with the range),
// MergeCheckpoints validates a set of partials and reduces them into the
// final deployment. Sharding divides work between processes; inside one
// process the enumeration's worker goroutines (Options.Workers) are the
// parallel path. DESIGN.md §13 documents the protocol.

import (
	"fmt"
	"math/bits"
	"sort"
)

// Span is a half-open range [Start, End) of enumeration indices.
type Span struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Len returns the number of indices in the span.
func (s Span) Len() int64 { return s.End - s.Start }

// contains reports whether idx lies in the span.
func (s Span) contains(idx int64) bool { return idx >= s.Start && idx < s.End }

// ShardSpec selects one shard of a sharded enumeration: shard Index of
// Count. The zero value (Count 0) means unsharded — the whole index space.
// Count 1 is a degenerate but valid sharding whose single shard owns the
// whole space; unlike the zero value it makes Approx emit a partial
// checkpoint, so a driver can treat every shard count uniformly.
type ShardSpec struct {
	Index, Count int
}

// sharded reports whether the spec names a shard rather than the whole
// space.
func (s ShardSpec) sharded() bool { return s.Count != 0 }

// check rejects malformed specs (the zero value passes).
func (s ShardSpec) check() error {
	if !s.sharded() && s.Index == 0 {
		return nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("core: invalid shard %d/%d: want 0 <= index < count", s.Index, s.Count)
	}
	return nil
}

// Range returns the contiguous sub-range of [0, total) owned by the shard:
// [floor(Index*total/Count), floor((Index+1)*total/Count)). The cuts are a
// partition by construction — shard i ends exactly where shard i+1 begins —
// and every shard's size is within one index of total/Count. The zero value
// returns the whole space. In sampled mode the same split applies to sample
// indices: each index reseeds the RNG (see subsetSource), so per-shard
// sample streams are deterministic and disjoint without any coordination.
func (s ShardSpec) Range(total int64) Span {
	if !s.sharded() {
		return Span{Start: 0, End: total}
	}
	return Span{Start: shardCut(s.Index, s.Count, total), End: shardCut(s.Index+1, s.Count, total)}
}

// shardCut returns floor(i*total/count) using 128-bit intermediates, so the
// arithmetic stays exact even when total is the saturated binomial
// (math.MaxInt64) and i*total would overflow int64.
func shardCut(i, count int, total int64) int64 {
	hi, lo := bits.Mul64(uint64(i), uint64(total))
	// hi = floor(i*total / 2^64) < count because i <= count and
	// total < 2^63, so Div64 cannot panic and the quotient fits in int64.
	q, _ := bits.Div64(hi, lo, uint64(count))
	return int64(q)
}

// ShardRange tags a partial checkpoint with the shard that produced it. The
// range bounds are recorded redundantly (they are derivable from
// Index/Count/Total) so checkpoint files are self-describing; validate
// recomputes and cross-checks them on resume and merge.
type ShardRange struct {
	Index int   `json:"index"`
	Count int   `json:"count"`
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// spanUnits returns the total index count across spans.
func spanUnits(spans []Span) int64 {
	var n int64
	for _, sp := range spans {
		n += sp.Len()
	}
	return n
}

// unitsBefore counts the indices in spans that lie strictly below x. Spans
// must be ascending and disjoint.
func unitsBefore(spans []Span, x int64) int64 {
	var n int64
	for _, sp := range spans {
		if x <= sp.Start {
			break
		}
		if x >= sp.End {
			n += sp.Len()
		} else {
			n += x - sp.Start
		}
	}
	return n
}

// consumeUnits returns the spans left after removing the first n indices in
// ascending order. Spans must be ascending and disjoint; the result shares
// no backing with the input.
func consumeUnits(spans []Span, n int64) []Span {
	var out []Span
	for _, sp := range spans {
		if n >= sp.Len() {
			n -= sp.Len()
			continue
		}
		out = append(out, Span{Start: sp.Start + n, End: sp.End})
		n = 0
	}
	return out
}

// inSpans reports whether idx lies in any of the spans.
func inSpans(spans []Span, idx int64) bool {
	for _, sp := range spans {
		if sp.contains(idx) {
			return true
		}
	}
	return false
}

// normalizeSpans drops empty spans, sorts ascending, and coalesces
// touching or overlapping neighbours into the canonical minimal form.
func normalizeSpans(spans []Span) []Span {
	nonEmpty := make([]Span, 0, len(spans))
	for _, sp := range spans {
		if sp.Len() > 0 {
			nonEmpty = append(nonEmpty, sp)
		}
	}
	sort.Slice(nonEmpty, func(i, j int) bool { return nonEmpty[i].Start < nonEmpty[j].Start })
	var merged []Span
	for _, sp := range nonEmpty {
		if n := len(merged); n > 0 && merged[n-1].End >= sp.Start {
			if sp.End > merged[n-1].End {
				merged[n-1].End = sp.End
			}
			continue
		}
		merged = append(merged, sp)
	}
	return merged
}

// MergeCheckpoints combines the partial checkpoints of a sharded run of the
// SAME scenario and options into one result. Every checkpoint is validated
// exactly as Options.Resume would (scenario fingerprint, effective s, seed,
// subset cap, prune/leftover flags, required cells, enumeration size and
// sampling mode, internal consistency), duplicates of the same shard are
// rejected, and the shard ranges must tile [0, total) exactly — any gap or
// overlap is an error, since a missing stretch of the index space would
// silently forfeit the approximation guarantee and an overlap would double
// count the Evaluated/Pruned totals.
//
// The reduction is the enumeration's own deterministic tie-break — most
// served users, then lowest enumeration index — applied across the shards'
// bests, so when all shards are complete the returned deployment is
// byte-identical to what an unsharded run would have produced
// (StatusComplete, nil error; or the same "no feasible deployment" error).
// When some shards were stopped early, the result is a StatusStopped
// deployment whose Checkpoint is the merged resumable state: an unsharded
// checkpoint whose Remaining spans list the still-unprocessed sub-ranges,
// resumable by a plain (unsharded) Approx run or mergeable again after
// re-running the missing shards.
//
// opts must carry the run's options but neither Resume nor Shard: the
// checkpoints themselves are the state, and each names its own shard.
func MergeCheckpoints(in *Instance, opts Options, cps []*Checkpoint) (*Deployment, error) {
	if len(cps) == 0 {
		return nil, fmt.Errorf("core: no checkpoints to merge")
	}
	if opts.Resume != nil {
		return nil, fmt.Errorf("core: merge options must not carry Resume: the checkpoints are the state")
	}
	if opts.Shard.sharded() {
		return nil, fmt.Errorf("core: merge options must not carry a shard: each checkpoint names its own")
	}
	opts = opts.withDefaults()
	sc := in.Scenario
	k, m := sc.K(), sc.M()
	s, err := effectiveS(opts.S, k, m)
	if err != nil {
		return nil, err
	}
	budget, err := PlanBudget(k, s)
	if err != nil {
		return nil, err
	}
	total, sampled := subsetSpace(m, s, opts)

	seen := make(map[[2]int]bool, len(cps))
	for i, cp := range cps {
		if cp == nil {
			return nil, fmt.Errorf("core: checkpoint %d is nil", i)
		}
		o := opts
		if cp.Shard != nil {
			o.Shard = ShardSpec{Index: cp.Shard.Index, Count: cp.Shard.Count}
			key := [2]int{cp.Shard.Count, cp.Shard.Index}
			if seen[key] {
				return nil, fmt.Errorf("core: merge: duplicate shard %d/%d", cp.Shard.Index, cp.Shard.Count)
			}
			seen[key] = true
		}
		if err := cp.validate(in, s, o, total, sampled); err != nil {
			return nil, fmt.Errorf("core: merge: checkpoint %d: %w", i, err)
		}
	}

	// The shard ranges must tile [0, total): sorted by start (empty ranges
	// first among equals), each range must begin exactly where coverage
	// ends so far.
	order := make([]int, len(cps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := cps[order[a]].Range(), cps[order[b]].Range()
		if ra.Start != rb.Start {
			return ra.Start < rb.Start
		}
		return ra.End < rb.End
	})
	covered := int64(0)
	for _, i := range order {
		r := cps[i].Range()
		if r.Start > covered {
			return nil, fmt.Errorf("core: merge: gap: no checkpoint covers [%d, %d)", covered, r.Start)
		}
		if r.Start < covered {
			return nil, fmt.Errorf("core: merge: checkpoint ranges overlap at index %d", r.Start)
		}
		covered = r.End
	}
	if covered != total {
		return nil, fmt.Errorf("core: merge: checkpoints cover only [0, %d) of [0, %d)", covered, total)
	}

	var evaluated, pruned int64
	best := subsetResult{idx: -1, served: -1}
	var rem []Span
	for _, cp := range cps {
		evaluated += cp.Evaluated
		pruned += cp.Pruned
		if b := cp.Best; b != nil {
			r := subsetResult{idx: b.Idx, served: b.Served, locs: append([]int(nil), b.Locs...), nsel: b.NSel}
			if r.better(best) {
				best = r
			}
		}
		rem = append(rem, cp.remaining()...)
	}
	rem = normalizeSpans(rem)
	if len(rem) > 0 {
		mcp := newCheckpoint(in, s, opts, total, sampled, rem, evaluated, pruned, best)
		return assembleDeployment(in, s, opts, sampled, budget, best, evaluated, pruned, StatusStopped, mcp)
	}
	return assembleDeployment(in, s, opts, sampled, budget, best, evaluated, pruned, StatusComplete, nil)
}
