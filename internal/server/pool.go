package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"

	uavnet "github.com/uav-coverage/uavnet"
)

// Start launches the worker pool under ctx and re-enqueues every unfinished
// job found at rescan. Cancelling ctx is the shutdown signal: each running
// solve stops at its next chunk boundary, persists its checkpoint durably,
// and the job's state returns to queued so the next process resumes it.
// Call Wait to block until every worker has drained.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	s.ctx = ctx
	s.pending = append(s.pending, s.requeue...)
	s.requeue = nil
	s.mu.Unlock()

	// Wake blocked workers when the server shuts down.
	go func() {
		<-ctx.Done()
		s.cond.Broadcast()
	}()
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j := s.nextJob(ctx)
				if j == nil {
					return
				}
				s.runJob(ctx, j)
			}
		}()
	}
}

// Wait blocks until every worker has exited (after the Start context is
// cancelled). Running jobs have persisted their checkpoints by then — the
// durable half of the SIGTERM story.
func (s *Server) Wait() { s.wg.Wait() }

// enqueue appends a job to the pending queue and wakes a worker.
func (s *Server) enqueue(j *Job) {
	s.mu.Lock()
	s.pending = append(s.pending, j)
	s.mu.Unlock()
	s.cond.Signal()
}

// nextJob blocks until a job is pending or the server is shutting down.
func (s *Server) nextJob(ctx context.Context) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil
		}
		if len(s.pending) > 0 {
			j := s.pending[0]
			s.pending = s.pending[1:]
			return j
		}
		s.cond.Wait()
	}
}

// runJob drives one job from claim to a terminal (or requeued) state.
func (s *Server) runJob(ctx context.Context, j *Job) {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !j.claim(cancel) {
		// The job was cancelled (or otherwise left queued) while pending.
		if state, _ := j.State(); state == JobCancelled {
			if err := s.persistState(j); err != nil {
				s.logf("job %s: persist cancelled state: %v", j.ID, err)
			}
		}
		return
	}
	j.publish(Event{Type: "state", State: JobRunning})
	if err := s.persistState(j); err != nil {
		s.fail(j, fmt.Errorf("persist running state: %w", err))
		return
	}

	dep, err := s.solve(jobCtx, j)
	switch {
	case err == nil:
		// Solve complete: persist the deployment first, then the state —
		// after a crash in between, rescan sees a running job with a
		// checkpoint and simply resumes it to the same bytes.
		data, perr := s.saveDeployment(j, dep)
		if perr != nil {
			s.fail(j, fmt.Errorf("persist deployment: %w", perr))
			return
		}
		j.mu.Lock()
		j.result = data
		j.mu.Unlock()
		j.setState(JobDone, "")
		if perr := s.persistState(j); perr != nil {
			s.logf("job %s: persist done state: %v", j.ID, perr)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The job context was cancelled: either the client asked (terminal
		// cancelled state) or the server is shutting down (back to queued,
		// the persisted checkpoint carries the frontier for the restart).
		j.mu.Lock()
		user := j.userStop
		j.mu.Unlock()
		if user {
			j.setState(JobCancelled, "")
		} else {
			j.setState(JobQueued, "")
		}
		if perr := s.persistState(j); perr != nil {
			s.logf("job %s: persist stop state: %v", j.ID, perr)
		}
	default:
		s.fail(j, err)
	}
}

// fail moves a job to the terminal failed state.
func (s *Server) fail(j *Job, err error) {
	j.setState(JobFailed, err.Error())
	if perr := s.persistState(j); perr != nil {
		s.logf("job %s: persist failed state: %v", j.ID, perr)
	}
}

// solve runs a job's solver to completion as a sequence of bounded slices:
// each slice runs for at most Config.CheckpointEvery, then the stopped run's
// checkpoint is persisted durably and the next slice resumes it. A resumed
// run finishes with a deployment byte-identical to an uninterrupted one
// (PR 4/7/8 invariants), so slicing buys crash-safety without changing any
// result. Returns the completed deployment, or ctx.Err() when the job
// context was cancelled (the latest checkpoint is on disk either way).
func (s *Server) solve(ctx context.Context, j *Job) (*uavnet.Deployment, error) {
	o := j.Options.normalized()
	in, err := s.instance(j)
	if err != nil {
		return nil, err
	}
	resume, err := uavnet.LoadCheckpoint(s.checkpointPath(j))
	if errors.Is(err, fs.ErrNotExist) {
		resume, err = nil, nil // no checkpoint yet: start from scratch
	}
	if err != nil {
		return nil, err
	}

	opts := uavnet.Options{
		S:                o.S,
		Workers:          o.Workers,
		MaxSubsets:       o.MaxSubsets,
		Seed:             o.Seed,
		DisablePrune:     o.DisablePrune,
		GroundLeftovers:  o.GroundLeftovers,
		Solver:           o.Solver,
		SolverBudget:     o.SolverBudget,
		ProgressInterval: s.cfg.ProgressEvery,
		Progress: func(p uavnet.RunProgress) {
			j.publish(Event{Type: "progress", Progress: progressInfo(p)})
		},
	}

	for {
		sliceCtx, cancelSlice := context.WithTimeout(ctx, s.cfg.CheckpointEvery)
		opts.Resume = resume
		dep, runErr := uavnet.DeployInstanceContext(sliceCtx, in, opts)
		cancelSlice()

		if dep != nil && dep.Status != uavnet.StatusStopped {
			return dep, nil
		}
		if dep == nil || dep.Checkpoint == nil {
			// No checkpoint and no complete deployment: a real failure.
			return nil, runErr
		}

		// Stopped: persist the frontier durably before anything else.
		resume = dep.Checkpoint
		if err := uavnet.SaveCheckpoint(s.checkpointPath(j), resume); err != nil {
			return nil, fmt.Errorf("persist checkpoint: %w", err)
		}
		done, total := resume.Frontier()
		j.publish(Event{Type: "checkpoint", Cursor: done, Total: total})

		if err := ctx.Err(); err != nil {
			// The job context (not the slice timer) was cancelled.
			return nil, err
		}
		if runErr != nil && !errors.Is(runErr, context.Canceled) && !errors.Is(runErr, context.DeadlineExceeded) {
			return nil, runErr
		}
		// Only the slice timer fired: resume the next slice.
	}
}

// instance builds the job's solve instance: per-user, or demand-aggregated
// when agg_cell is set.
func (s *Server) instance(j *Job) (*uavnet.Instance, error) {
	if j.Options.AggCell > 0 {
		return uavnet.NewAggregateInstance(j.Scenario, uavnet.AggregateOptions{CellSide: j.Options.AggCell})
	}
	return uavnet.NewInstance(j.Scenario)
}

// claim transitions queued → running, installing the cancel hook. It fails
// when the job left the queued state while pending (e.g. cancelled).
func (j *Job) claim(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	if j.userStop {
		// Cancelled while pending: finish the transition the cancel handler
		// started.
		j.state = JobCancelled
		return false
	}
	j.state = JobRunning
	j.errMsg = ""
	j.cancel = cancel
	return true
}

// reQueue transitions a cancelled or failed job back to queued (used when
// the same job is POSTed again: it resumes from its persisted checkpoint).
func (j *Job) reQueue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobCancelled && j.state != JobFailed {
		return false
	}
	j.state = JobQueued
	j.errMsg = ""
	j.userStop = false
	return true
}
