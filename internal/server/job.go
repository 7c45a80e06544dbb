// Package server turns the uavnet library into a long-running deployment
// service: POST a scenario, get a deterministic job id; a bounded worker
// pool solves jobs concurrently through the facade (enumeration or
// metaheuristic portfolio, per-user or demand-aggregated), streams
// progress snapshots to SSE subscribers, and persists every job's checkpoint
// atomically on a cadence and on shutdown — so a crashed or SIGTERM'd server
// restarts, rescans its job directory, and resumes every unfinished job to a
// deployment byte-identical to an uninterrupted solve. DESIGN.md §15
// documents the job lifecycle and the durability contract.
package server

import (
	"fmt"
	"hash/fnv"
	"sync"

	uavnet "github.com/uav-coverage/uavnet"
)

// JobState is one node of the job lifecycle state machine:
//
//	queued ──► running ──► done
//	  ▲           │  ├───► failed
//	  │           │  └───► cancelled ──► queued   (resubmission resumes)
//	  └───────────┘  (server shutdown/crash: running jobs rescan as queued)
//
// done, failed, and cancelled are terminal for the server's own scheduling;
// cancelled and failed jobs re-enter the queue when the same job is POSTed
// again (resuming from their persisted checkpoint, never from scratch).
type JobState string

// Job lifecycle states.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// terminal reports whether the state ends an SSE stream.
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobOptions is the client-facing slice of uavnet.Options a submission may
// set, split into result-shaping fields (part of the job's identity: two
// submissions differing in any of them are different jobs) and the one
// execution hint, Workers (it changes how fast the answer arrives, never the
// answer, so it is excluded from the job id and duplicates dedupe across
// it).
type JobOptions struct {
	// S is the anchor-subset size (0 selects the paper's s = 3).
	S int `json:"s,omitempty"`
	// MaxSubsets caps the enumeration (0 = exhaustive); see Options.
	MaxSubsets int `json:"max_subsets,omitempty"`
	// Seed drives subset sampling and the metaheuristic RNG streams.
	Seed int64 `json:"seed,omitempty"`
	// DisablePrune and GroundLeftovers mirror the Options flags.
	DisablePrune    bool `json:"disable_prune,omitempty"`
	GroundLeftovers bool `json:"ground_leftovers,omitempty"`
	// Solver selects the search: "" / "enum", a portfolio member, or
	// "portfolio" (see uavnet.SolverNames).
	Solver string `json:"solver,omitempty"`
	// SolverBudget caps evaluations per metaheuristic member.
	SolverBudget int64 `json:"solver_budget,omitempty"`
	// AggCell, when positive, solves a demand-aggregated instance with this
	// cell side in meters. It shapes the instance fingerprint, hence the
	// result, hence the job id.
	AggCell float64 `json:"agg_cell,omitempty"`
	// Workers is the per-solve goroutine count (execution hint; 0 = cores).
	Workers int `json:"workers,omitempty"`
}

// normalized maps equivalent submissions onto one canonical form, so the
// deterministic job id dedupes {"s": 3} against {} and "enum" against "".
func (o JobOptions) normalized() JobOptions {
	if o.S == 0 {
		o.S = 3
	}
	if o.Solver == "" {
		o.Solver = "enum"
	}
	return o
}

// enum reports whether the (normalized) options select the enumeration.
func (o JobOptions) enum() bool { return o.Solver == "" || o.Solver == "enum" }

// Validate rejects option combinations the solvers would reject mid-run, so
// a bad submission fails at POST time with a 400 instead of becoming a
// failed job. The rules mirror cmd/uavdeploy's flag validation.
func (o JobOptions) Validate() error {
	switch {
	case o.S < 0:
		return fmt.Errorf("s must be non-negative, got %d", o.S)
	case o.MaxSubsets < 0:
		return fmt.Errorf("max_subsets must be non-negative, got %d", o.MaxSubsets)
	case o.SolverBudget < 0:
		return fmt.Errorf("solver_budget must be non-negative, got %d", o.SolverBudget)
	case o.AggCell < 0:
		return fmt.Errorf("agg_cell must be non-negative, got %g", o.AggCell)
	case o.Workers < 0:
		return fmt.Errorf("workers must be non-negative, got %d", o.Workers)
	}
	known := false
	for _, name := range uavnet.SolverNames() {
		if o.normalized().Solver == name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown solver %q (want one of %v)", o.Solver, uavnet.SolverNames())
	}
	if o.normalized().enum() {
		if o.SolverBudget != 0 {
			return fmt.Errorf("solver_budget needs a metaheuristic solver; the enumeration is budgeted with max_subsets")
		}
	} else if o.MaxSubsets != 0 {
		return fmt.Errorf("max_subsets and solver %q are incompatible: cap work with solver_budget instead", o.Solver)
	}
	return nil
}

// JobID returns the deterministic job id of a submission: an FNV-1a hash of
// the scenario fingerprint and the canonical result-shaping options.
// Identical problems submitted twice — even with different execution hints —
// map to the same id, so duplicates dedupe against the existing job instead
// of re-solving.
func JobID(sc *uavnet.Scenario, o JobOptions) string {
	n := o.normalized()
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|s=%d|max=%d|seed=%d|prune=%t|ground=%t|solver=%s|budget=%d|agg=%g",
		sc.Fingerprint(), n.S, n.MaxSubsets, n.Seed, n.DisablePrune, n.GroundLeftovers,
		n.Solver, n.SolverBudget, n.AggCell)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ProgressInfo is the wire form of a solver progress snapshot (durations in
// milliseconds; see core.Progress for field semantics).
type ProgressInfo struct {
	Done       int64 `json:"done"`
	Total      int64 `json:"total"`
	Evaluated  int64 `json:"evaluated"`
	Pruned     int64 `json:"pruned"`
	BestServed int   `json:"best_served"`
	ScopeDone  int64 `json:"scope_done"`
	ScopeTotal int64 `json:"scope_total"`
	ElapsedMS  int64 `json:"elapsed_ms"`
	ETAMS      int64 `json:"eta_ms,omitempty"`
}

// Event is one server-sent event on a job's stream.
type Event struct {
	// Type is "state", "progress", or "checkpoint".
	Type string `json:"type"`
	// State accompanies "state" events (with Error for failures).
	State JobState `json:"state,omitempty"`
	Error string   `json:"error,omitempty"`
	// Progress accompanies "progress" events.
	Progress *ProgressInfo `json:"progress,omitempty"`
	// Cursor/Total accompany "checkpoint" events: the durable progress as
	// Checkpoint.Frontier reports it. Despite its wire name, Cursor counts
	// processed units (enumeration subsets or portfolio evaluations), not
	// the checkpoint's raw cursor; the two differ for a merged checkpoint
	// with several unprocessed holes.
	Cursor int64 `json:"cursor,omitempty"`
	Total  int64 `json:"total,omitempty"`
}

// Job is one submitted deployment problem and its run state. The scenario
// and options are immutable after submission; everything else is guarded by
// mu.
type Job struct {
	ID       string
	Scenario *uavnet.Scenario
	Options  JobOptions
	dir      string

	mu       sync.Mutex
	state    JobState                //uavlint:guard mu
	errMsg   string                  //uavlint:guard mu
	progress *ProgressInfo           //uavlint:guard mu
	cancel   func()                  //uavlint:guard mu -- non-nil while running; requests cancellation
	userStop bool                    //uavlint:guard mu -- cancellation was client-requested, not a shutdown
	subs     map[chan Event]struct{} //uavlint:guard mu
	result   []byte                  //uavlint:guard mu -- deployment.json bytes once done
}

// State returns the job's current state and terminal error message.
func (j *Job) State() (JobState, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

// Progress returns the latest progress snapshot, or nil before the first.
func (j *Job) Progress() *ProgressInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.progress == nil {
		return nil
	}
	cp := *j.progress
	return &cp
}

// publish fans an event out to every subscriber without blocking: a slow
// client misses intermediate snapshots (the next one supersedes them), it
// never stalls the solver's progress hook.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	if ev.Type == "progress" && ev.Progress != nil {
		p := *ev.Progress
		j.progress = &p
	}
	subs := make([]chan Event, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	j.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an SSE listener and returns its channel plus the
// events replaying the job's current state (state, then latest progress) so
// a late subscriber is immediately consistent.
func (j *Job) subscribe() (chan Event, []Event) {
	ch := make(chan Event, 64)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.subs == nil {
		j.subs = make(map[chan Event]struct{})
	}
	j.subs[ch] = struct{}{}
	replay := []Event{{Type: "state", State: j.state, Error: j.errMsg}}
	if j.progress != nil {
		p := *j.progress
		replay = append(replay, Event{Type: "progress", Progress: &p})
	}
	return ch, replay
}

// unsubscribe removes an SSE listener.
func (j *Job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// setState transitions the job and notifies subscribers. The caller is
// responsible for persisting the transition (see Server.persistState).
func (j *Job) setState(state JobState, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	if state != JobRunning {
		j.cancel = nil
	}
	j.mu.Unlock()
	j.publish(Event{Type: "state", State: state, Error: errMsg})
}

// requestCancel asks the job to stop and returns the state the request acted
// on: JobRunning (the solver's context is cancelled; the worker finishes the
// transition when it returns), JobQueued (the job leaves the queue as
// cancelled immediately), or "" when the job is already terminal. userStop
// distinguishes a client cancel from a server shutdown.
func (j *Job) requestCancel() JobState {
	j.mu.Lock()
	switch {
	case j.state == JobRunning && j.cancel != nil:
		j.userStop = true
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return JobRunning
	case j.state == JobQueued:
		j.userStop = true
		j.state = JobCancelled
		j.mu.Unlock()
		j.publish(Event{Type: "state", State: JobCancelled})
		return JobQueued
	}
	j.mu.Unlock()
	return ""
}

// progressInfo converts a solver snapshot to the wire form.
func progressInfo(p uavnet.RunProgress) *ProgressInfo {
	return &ProgressInfo{
		Done:       p.Done,
		Total:      p.Total,
		Evaluated:  p.Evaluated,
		Pruned:     p.Pruned,
		BestServed: p.BestServed,
		ScopeDone:  p.ScopeDone,
		ScopeTotal: p.ScopeTotal,
		ElapsedMS:  p.Elapsed.Milliseconds(),
		ETAMS:      p.ETA.Milliseconds(),
	}
}
