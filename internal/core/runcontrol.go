package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// RunStatus tags how an Approx run ended.
type RunStatus string

const (
	// StatusComplete marks a run that exhausted the whole enumeration: the
	// deployment carries the paper's full approximation guarantee.
	StatusComplete RunStatus = "complete"
	// StatusStopped marks a run cut short — by context cancellation, a
	// deadline, or Options.StopAfter. The deployment is the best found so
	// far (possibly empty) and its Checkpoint field resumes the run.
	StatusStopped RunStatus = "stopped"
	// StatusPartial marks a sharded run (Options.Shard) that exhausted its
	// own shard range: the deployment is the best over that range only, and
	// its Checkpoint is the partial state MergeCheckpoints combines into the
	// final result. A sharded run stopped before finishing its range reports
	// StatusStopped, exactly like an unsharded one.
	StatusPartial RunStatus = "partial"
)

// Progress is a point-in-time snapshot of a running enumeration, delivered
// to the Options.Progress hook from a monitor goroutine and once more,
// synchronously, just before Approx returns.
type Progress struct {
	// Done counts the enumeration indices of this run's range (a race's
	// evaluations) processed so far, including any prefix covered by a
	// resumed checkpoint. Done = Evaluated + Pruned.
	Done int64
	// Total is the enumeration range size for this run: C(m, s) (or
	// MaxSubsets when sampling), or the shard's range size under
	// Options.Shard.
	Total int64
	// Evaluated and Pruned split Done into subsets actually scored and
	// subsets skipped by the sound pruning rule.
	Evaluated, Pruned int64
	// BestServed is the served-user count of the best subset found so far,
	// or 0 while no feasible subset has been seen.
	BestServed int
	// Elapsed is the wall-clock time since this Approx call started (a
	// resumed run's clock restarts at zero).
	Elapsed time.Duration
	// ScopeDone and ScopeTotal count only this run's own claimable work:
	// the indices left after subtracting a resumed checkpoint's prefix and
	// truncating to the StopAfter budget, or for a race each member's
	// evaluations from its resumed count up to min(budget, StopAfter).
	// ScopeDone therefore starts at 0 even on a resumed run, and reaches
	// ScopeTotal when the run finished everything it was asked to do this
	// invocation (a race may pass it by the few evaluations of a tabu step).
	ScopeDone, ScopeTotal int64
	// ETA estimates the remaining wall-clock time to finish this run's
	// scope, from the processing rate observed this run
	// (Elapsed/ScopeDone): a resumed checkpoint's pre-existing prefix
	// counts toward neither the rate nor the remaining work, and a
	// StopAfter-budgeted run's ETA reaches zero when the budget — not the
	// whole enumeration — is exhausted. Zero until the rate is measurable.
	ETA time.Duration
}

// MonitorProgress drives the Options.Progress hook for a run that started at
// start: counters samples the run's live counters (every field but Elapsed
// and ETA, which MonitorProgress derives), a monitor goroutine reports a
// snapshot every ProgressInterval (default one second), and the returned
// stop joins the monitor and reports one final snapshot synchronously. The
// monitor never touches solver state, so it adds no contention to the
// evaluation path. Without a hook it starts nothing.
func MonitorProgress(start time.Time, opts Options, counters func() Progress) (stop func()) {
	if opts.Progress == nil {
		return func() {}
	}
	snapshot := func() Progress {
		p := counters()
		p.Elapsed = time.Since(start) //uavlint:allow timenow -- progress snapshot output only
		// The rate and the remaining work both count only this run's own
		// scope, so a resumed prefix or work beyond a budget cannot skew it.
		if p.ScopeDone > 0 && p.ScopeDone < p.ScopeTotal {
			p.ETA = time.Duration(float64(p.Elapsed) / float64(p.ScopeDone) * float64(p.ScopeTotal-p.ScopeDone))
		}
		return p
	}
	interval := opts.ProgressInterval
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				opts.Progress(snapshot())
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		monitor.Wait()
		opts.Progress(snapshot())
	}
}

// Checkpoint kinds, the values of Checkpoint.Algorithm.
const (
	// KindEnum tags an enumeration (Approx) checkpoint.
	KindEnum = "approAlg"
	// KindPortfolio tags a metaheuristic portfolio (portfolio.Race)
	// checkpoint.
	KindPortfolio = "portfolio"
)

// Checkpoint freezes a stopped run so a later run can resume it via
// Options.Resume and finish with a deployment byte-identical to an
// uninterrupted run. It is the one checkpoint type of every solver, tagged by
// Algorithm: KindEnum for the enumeration, KindPortfolio for the
// metaheuristic portfolio. Each kind leaves the other's fields zero, so an
// enumeration checkpoint serializes exactly as it did before the portfolio
// fields existed.
//
// An enumeration checkpoint is valid because the enumeration is
// deterministic in (Seed, index): workers claim one index at a time from an
// atomic cursor and always finish a claimed index before honoring
// cancellation, so the processed indices form an exact prefix of the run's
// range and the sampling RNG needs no state beyond Seed (each index reseeds
// it — see subsetSource). A sharded run (Options.Shard) freezes the same
// state for its own sub-range, tagged with Shard; MergeCheckpoints combines
// such partials. A merged checkpoint of incompletely-processed shards is the
// one case where the done set is not a single prefix — its holes are listed
// in Remaining.
//
// A portfolio checkpoint holds one SolverState per racing member (see
// SolverState for why that resumes exactly) plus the Solver and Budget that
// shaped the race.
type Checkpoint struct {
	// Algorithm is the checkpoint kind (KindEnum or KindPortfolio); a solver
	// refuses to resume the other kind.
	Algorithm string `json:"algorithm"`
	// ScenarioFingerprint guards against resuming on a different scenario.
	// It is Instance.Fingerprint, not Scenario.Fingerprint: on aggregated
	// instances it also covers the demand grid, so a checkpoint taken under
	// one aggregation cell side cannot resume under another (or under a
	// per-user solve) — the enumeration's scores would differ silently.
	ScenarioFingerprint uint64 `json:"scenario_fingerprint"`
	// S is the effective anchor-subset size (after clamping to K and m).
	S int `json:"s"`
	// Seed, MaxSubsets, DisablePrune, GroundLeftovers, and RequiredCells
	// echo the options that shape the enumeration and its counters; resuming
	// under different values would silently change the result, so they must
	// match exactly.
	Seed            int64 `json:"seed"`
	MaxSubsets      int   `json:"max_subsets,omitempty"`
	DisablePrune    bool  `json:"disable_prune,omitempty"`
	GroundLeftovers bool  `json:"ground_leftovers,omitempty"`
	RequiredCells   []int `json:"required_cells,omitempty"`
	// Total is the enumeration size; Sampled records whether indices name
	// random draws rather than colex combinations.
	Total   int64 `json:"total_subsets"`
	Sampled bool  `json:"sampled,omitempty"`
	// Shard, when non-nil, marks a partial checkpoint: the run covered only
	// the tagged shard's sub-range of the enumeration (see ShardSpec.Range).
	// Resuming requires the same Options.Shard; MergeCheckpoints combines a
	// full set of partials into the unsharded result.
	Shard *ShardRange `json:"shard,omitempty"`
	// Cursor is the processed frontier within the checkpoint's range: every
	// index in [Range().Start, Cursor) has been evaluated or pruned and —
	// unless Remaining says otherwise — no index at or beyond Cursor has.
	Cursor int64 `json:"cursor"`
	// Remaining lists the still-unprocessed sub-ranges when the done set is
	// not a single prefix, which only merged checkpoints produce (some
	// shards finished, others did not). The spans are ascending, disjoint,
	// non-touching, and start at Cursor; when the unprocessed set is the
	// plain suffix [Cursor, Range().End) — every directly-emitted
	// checkpoint — Remaining is omitted, keeping the format of pre-shard
	// checkpoints byte-compatible.
	Remaining []Span `json:"remaining,omitempty"`
	// Evaluated and Pruned are the counter values over the processed set.
	Evaluated int64 `json:"evaluated"`
	Pruned    int64 `json:"pruned"`
	// Best is the best feasible subset over the processed set, or nil.
	Best *CheckpointBest `json:"best,omitempty"`
	// Solver and Budget echo the portfolio options that shape every
	// member's trajectory (Options.Solver and the effective SolverBudget);
	// Members holds one frozen state per racing member, in canonical order.
	// Portfolio checkpoints only.
	Solver  string        `json:"solver,omitempty"`
	Budget  int64         `json:"budget,omitempty"`
	Members []SolverState `json:"members,omitempty"`
}

// SolverState freezes one portfolio member. Together with the run options it
// is the member's complete state: the search trajectory is a pure function of
// (seed, step), so restoring the RNG word, the incumbent/best pair, and the
// member-specific Extra blob makes the resumed member continue exactly the
// interrupted trajectory — a cancelled-then-resumed race is byte-identical to
// an uninterrupted one.
type SolverState struct {
	// Name is the member's canonical name.
	Name string `json:"name"`
	// Steps and Evals are the member's step and evaluation counters.
	Steps int64 `json:"steps"`
	Evals int64 `json:"evals"`
	// RNG is the member's splitmix64 state word.
	RNG uint64 `json:"rng"`
	// Current and CurServed are the incumbent subset and its score; an
	// absent Current means the member had not seeded yet (or was between
	// GRASP restarts).
	Current   []int `json:"current,omitempty"`
	CurServed int   `json:"cur_served"`
	// Best and BestServed are the best feasible subset seen and its score;
	// BestServed is -1 while none has been found.
	Best       []int `json:"best,omitempty"`
	BestServed int   `json:"best_served"`
	// Extra is the member-specific memory: the tabu ring, the genetic
	// population, the GRASP stall counter. Absent for memoryless members.
	Extra json.RawMessage `json:"extra,omitempty"`
}

// Frontier reports how far the frozen run got: for an enumeration, the
// processed indices of its range and the range's size (for a merged
// checkpoint with several holes that is more than the cursor); for a
// portfolio, the evaluations spent by all members and members × budget.
func (c *Checkpoint) Frontier() (done, total int64) {
	if c.Algorithm != KindPortfolio {
		total = c.Range().Len()
		done = total
		for _, sp := range c.remaining() {
			done -= sp.Len()
		}
		return done, total
	}
	for _, m := range c.Members {
		done += m.Evals
	}
	return done, int64(len(c.Members)) * c.Budget
}

// Range returns the enumeration sub-range the checkpoint covers: its
// shard's range for a partial checkpoint, the whole [0, Total) otherwise.
func (c *Checkpoint) Range() Span {
	if c.Shard != nil {
		return Span{Start: c.Shard.Start, End: c.Shard.End}
	}
	return Span{Start: 0, End: c.Total}
}

// Complete reports whether every index of the checkpoint's range has been
// processed — nothing is left to resume.
//
//uavlint:allow testonly -- the shard tests of core, verify and cmd/uavdeploy read merged checkpoints with it
func (c *Checkpoint) Complete() bool { return len(c.remaining()) == 0 }

// RemainingSpans returns a copy of the checkpoint's unprocessed sub-ranges,
// in ascending order; empty when the checkpoint is complete.
func (c *Checkpoint) RemainingSpans() []Span { return append([]Span(nil), c.remaining()...) }

// remaining is the unprocessed set: the explicit Remaining list when
// present, else the suffix [Cursor, Range().End), else nothing.
func (c *Checkpoint) remaining() []Span {
	if len(c.Remaining) > 0 {
		return c.Remaining
	}
	if r := c.Range(); c.Cursor < r.End {
		return []Span{{Start: c.Cursor, End: r.End}}
	}
	return nil
}

// CheckpointBest is the best feasible anchor subset of a processed set. It
// is also the enumeration's running best while the run is live, with Idx -1
// and Served -1 while no feasible subset has been seen.
type CheckpointBest struct {
	// Idx is the subset's enumeration index (the deterministic tie-break).
	Idx int64 `json:"idx"`
	// Served is the number of users the subset's placement serves.
	Served int `json:"served"`
	// Locs is the location per capacity-sorted UAV slot.
	Locs []int `json:"locs"`
	// NSel is the prefix of Locs chosen by the M1 /\ M2 greedy phase.
	NSel int `json:"nsel"`
}

// better reports whether b beats c under the enumeration's deterministic
// reduction order: more served users first, then the smaller enumeration
// index. The order is total, so the reduction's result does not depend on
// the order it folds in.
func (b CheckpointBest) better(c CheckpointBest) bool {
	if b.Served != c.Served {
		return b.Served > c.Served
	}
	return b.Idx < c.Idx
}

// Marshal serializes the checkpoint as indented JSON.
func (c *Checkpoint) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// UnmarshalCheckpoint parses a checkpoint previously produced by Marshal.
// Decoding is strict (unknown fields are rejected): a checkpoint field the
// format does not define means the file was hand-edited or written by a
// different version, and a silently-dropped field here would resume a
// different run than the one frozen — the validate pass can only cross-check
// fields it actually decoded. For the same reason a checkpoint of one kind
// carrying the other kind's fields is rejected, and so is anything after the
// checkpoint object: a concatenated or hand-edited file would resume its
// first object without a word.
// The portfolio members' Extra blobs stay raw JSON; each member validates
// its own on resume.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: bad checkpoint: data after the checkpoint object")
	}
	var foreign bool
	switch c.Algorithm {
	case KindEnum:
		foreign = c.Solver != "" || c.Budget != 0 || c.Members != nil
	case KindPortfolio:
		foreign = c.MaxSubsets != 0 || c.RequiredCells != nil || c.Total != 0 || c.Sampled ||
			c.Shard != nil || c.Cursor != 0 || c.Remaining != nil || c.Evaluated != 0 || c.Pruned != 0 || c.Best != nil
	default:
		return nil, fmt.Errorf("core: checkpoint is for algorithm %q, not %s or %s", c.Algorithm, KindEnum, KindPortfolio)
	}
	if foreign {
		return nil, fmt.Errorf("core: %s checkpoint carries fields of the other checkpoint kind", c.Algorithm)
	}
	return &c, nil
}

// Mismatch is the error a resume validation reports when a checkpoint field
// differs from the run trying to resume it.
func (c *Checkpoint) Mismatch(field string, got, want any) error {
	return fmt.Errorf("core: checkpoint does not match this run: %s is %v, checkpoint has %v", field, got, want)
}

// ValidateCommon checks the fields every checkpoint kind shares against the
// resuming run: the kind itself, the scenario fingerprint, the effective s,
// and the options both kinds echo (Seed, DisablePrune, GroundLeftovers).
func (c *Checkpoint) ValidateCommon(kind string, in *Instance, s int, opts Options) error {
	if c.Algorithm != kind {
		return fmt.Errorf("core: checkpoint is for algorithm %q, not %s", c.Algorithm, kind)
	}
	if fp := in.Fingerprint(); fp != c.ScenarioFingerprint {
		// Hex, matching what uavgen prints for a scenario file.
		return c.Mismatch("scenario fingerprint", fmt.Sprintf("%016x", fp), fmt.Sprintf("%016x", c.ScenarioFingerprint))
	}
	if s != c.S {
		return c.Mismatch("s", s, c.S)
	}
	if opts.Seed != c.Seed {
		return c.Mismatch("seed", opts.Seed, c.Seed)
	}
	if opts.DisablePrune != c.DisablePrune {
		return c.Mismatch("disable-prune", opts.DisablePrune, c.DisablePrune)
	}
	if opts.GroundLeftovers != c.GroundLeftovers {
		return c.Mismatch("ground-leftovers", opts.GroundLeftovers, c.GroundLeftovers)
	}
	return nil
}

// CommonCheckpoint returns a checkpoint of the given kind stamped with the
// fields ValidateCommon checks: the kind, the instance fingerprint, the
// effective s, and the options both kinds echo (Seed, DisablePrune,
// GroundLeftovers). Each solver fills in its own fields.
func CommonCheckpoint(kind string, in *Instance, s int, opts Options) *Checkpoint {
	return &Checkpoint{
		Algorithm:           kind,
		ScenarioFingerprint: in.Fingerprint(),
		S:                   s,
		Seed:                opts.Seed,
		DisablePrune:        opts.DisablePrune,
		GroundLeftovers:     opts.GroundLeftovers,
	}
}

// validate rejects a checkpoint that was not produced by an identical run:
// same scenario, same effective options, same enumeration space. seed of
// Options is passed through opts.
func (c *Checkpoint) validate(in *Instance, s int, opts Options, total int64, sampled bool) error {
	mismatch := c.Mismatch
	if err := c.ValidateCommon(KindEnum, in, s, opts); err != nil {
		return err
	}
	if opts.MaxSubsets != c.MaxSubsets {
		return mismatch("max-subsets", opts.MaxSubsets, c.MaxSubsets)
	}
	if len(opts.RequiredCells) != len(c.RequiredCells) {
		return mismatch("required cells", opts.RequiredCells, c.RequiredCells)
	}
	for i, cell := range opts.RequiredCells {
		if cell != c.RequiredCells[i] {
			return mismatch("required cells", opts.RequiredCells, c.RequiredCells)
		}
	}
	if total != c.Total {
		return mismatch("total subsets", total, c.Total)
	}
	if sampled != c.Sampled {
		return mismatch("sampled", sampled, c.Sampled)
	}
	if opts.Shard.sharded() {
		want := opts.Shard.Range(total)
		switch {
		case c.Shard == nil:
			return mismatch("shard", fmt.Sprintf("%d/%d", opts.Shard.Index, opts.Shard.Count), "an unsharded checkpoint")
		case c.Shard.Index != opts.Shard.Index || c.Shard.Count != opts.Shard.Count:
			return mismatch("shard", fmt.Sprintf("%d/%d", opts.Shard.Index, opts.Shard.Count), fmt.Sprintf("%d/%d", c.Shard.Index, c.Shard.Count))
		case c.Shard.Start != want.Start || c.Shard.End != want.End:
			// The recorded bounds are redundant; a mismatch means the file
			// was edited or produced by an incompatible splitter.
			return fmt.Errorf("core: checkpoint shard %d/%d records range [%d, %d), want [%d, %d)",
				c.Shard.Index, c.Shard.Count, c.Shard.Start, c.Shard.End, want.Start, want.End)
		}
	} else if c.Shard != nil {
		return mismatch("shard", "none", fmt.Sprintf("%d/%d", c.Shard.Index, c.Shard.Count))
	}
	r := c.Range()
	if c.Cursor < r.Start || c.Cursor > r.End {
		return fmt.Errorf("core: checkpoint cursor %d out of range [%d, %d]", c.Cursor, r.Start, r.End)
	}
	if c.Remaining != nil {
		if c.Shard != nil {
			return fmt.Errorf("core: partial shard checkpoints are contiguous; remaining ranges are only valid on merged checkpoints")
		}
		if len(c.Remaining) == 0 {
			return fmt.Errorf("core: checkpoint remaining list is empty; omit it when nothing is left")
		}
		prevEnd := int64(-1)
		for i, sp := range c.Remaining {
			if sp.Start >= sp.End {
				return fmt.Errorf("core: checkpoint remaining range [%d, %d) is empty or inverted", sp.Start, sp.End)
			}
			if sp.Start < r.Start || sp.End > r.End {
				return fmt.Errorf("core: checkpoint remaining range [%d, %d) outside [%d, %d)", sp.Start, sp.End, r.Start, r.End)
			}
			if i > 0 && sp.Start <= prevEnd {
				return fmt.Errorf("core: checkpoint remaining ranges must be ascending, disjoint, and coalesced")
			}
			prevEnd = sp.End
		}
		if c.Cursor != c.Remaining[0].Start {
			return fmt.Errorf("core: checkpoint cursor %d disagrees with first remaining range start %d", c.Cursor, c.Remaining[0].Start)
		}
	}
	if c.Best != nil && (!r.contains(c.Best.Idx) || inSpans(c.remaining(), c.Best.Idx)) {
		return fmt.Errorf("core: checkpoint best index %d outside the processed set", c.Best.Idx)
	}
	return nil
}

// newCheckpoint freezes the state of a stopped, partial, or merged run.
// remaining lists the unprocessed sub-ranges of the run's range (ascending,
// disjoint, coalesced; nil/empty when the range is fully processed); the
// encoding is canonical — a plain suffix collapses into Cursor, only true
// holes materialize as Remaining. best.Idx < 0 means no feasible subset was
// found in the processed set.
func newCheckpoint(in *Instance, s int, opts Options, total int64, sampled bool, remaining []Span, evaluated, pruned int64, best CheckpointBest) *Checkpoint {
	c := CommonCheckpoint(KindEnum, in, s, opts)
	c.MaxSubsets = opts.MaxSubsets
	c.RequiredCells = append([]int(nil), opts.RequiredCells...)
	c.Total, c.Sampled = total, sampled
	c.Evaluated, c.Pruned = evaluated, pruned
	r := opts.Shard.Range(total)
	if opts.Shard.sharded() {
		c.Shard = &ShardRange{Index: opts.Shard.Index, Count: opts.Shard.Count, Start: r.Start, End: r.End}
	}
	switch {
	case len(remaining) == 0:
		c.Cursor = r.End
	case len(remaining) == 1 && remaining[0].End == r.End:
		c.Cursor = remaining[0].Start
	default:
		c.Cursor = remaining[0].Start
		c.Remaining = append([]Span(nil), remaining...)
	}
	if best.Idx >= 0 {
		best.Locs = append([]int(nil), best.Locs...)
		c.Best = &best
	}
	return c
}
