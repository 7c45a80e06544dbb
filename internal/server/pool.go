package server

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	uavnet "github.com/uav-coverage/uavnet"
)

// Start launches the worker pool under ctx and re-enqueues every unfinished
// job found at rescan. Cancelling ctx is the shutdown signal: each running
// solve stops once its workers finish the subset evaluation (or portfolio
// step) in hand, persists its checkpoint durably, and the job's state
// returns to queued so the next process resumes it.
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

// runJob drives one job from claim to a terminal (or requeued) state. Of
// its outcomes only failed and cancelled are recorded in state.json: done
// is deployment.json itself, and a job stopped by shutdown rescans as
// queued without a record.
func (s *Server) runJob(ctx context.Context, j *Job) {
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if !j.claim(cancel) {
		return // cancelled while pending; handleCancel recorded it
	}
	j.publish(Event{Type: "state", State: JobRunning})

	dep, err := s.solve(jobCtx, j)
	switch {
	case err == nil:
		data, perr := s.saveDeployment(j, dep)
		if perr != nil {
			s.fail(j, fmt.Errorf("persist deployment: %w", perr))
			return
		}
		j.mu.Lock()
		j.result = data
		j.mu.Unlock()
		j.setState(JobDone, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The job context was cancelled: either the client asked (terminal
		// cancelled state) or the server is shutting down (back to queued;
		// the persisted checkpoint carries the frontier for the restart).
		j.mu.Lock()
		user := j.userStop
		j.mu.Unlock()
		if !user {
			j.setState(JobQueued, "")
			return
		}
		j.setState(JobCancelled, "")
		if perr := s.persistState(j); perr != nil {
			s.logf("job %s: persist cancelled state: %v", j.ID, perr)
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
// each slice runs under a Config.CheckpointEvery deadline, then the stopped
// run's checkpoint is persisted durably and the next slice resumes it. A
// slice overruns its deadline by at most one evaluation (or portfolio step)
// per worker plus the runtime's timer latency: when every P is busy
// solving, a millisecond deadline may be observed tens of milliseconds
// late. A resumed run finishes with a deployment
// byte-identical to an uninterrupted one (the stopped-run contract), so
// slicing buys crash-safety without changing any result. Returns the
// completed deployment, or ctx.Err() when the job context was cancelled
// (the latest checkpoint is on disk either way).
func (s *Server) solve(ctx context.Context, j *Job) (*uavnet.Deployment, error) {
	in, err := s.instance(j)
	if err != nil {
		return nil, err
	}
	resume, err := uavnet.LoadCheckpoint(filepath.Join(s.jobDir(j.ID), checkpointFile))
	if errors.Is(err, fs.ErrNotExist) {
		resume, err = nil, nil // no checkpoint yet: start from scratch
	}
	if err != nil {
		return nil, err
	}

	opts := j.Options.normalized().options()
	opts.ProgressInterval = s.cfg.ProgressEvery
	opts.Progress = func(p uavnet.RunProgress) {
		j.publish(Event{Type: "progress", Progress: progressInfo(p)})
	}

	for {
		sliceCtx, cancelSlice := context.WithTimeout(ctx, s.cfg.CheckpointEvery)
		opts.Resume = resume
		if s.sliceSubsets > 0 {
			// A slice cut by StopAfter stops with a nil error. The next cut lies
			// sliceSubsets past an enumeration's cursor or a race's furthest member.
			opts.StopAfter = s.sliceSubsets
			if resume != nil {
				opts.StopAfter += resume.Cursor
				for _, m := range resume.Members {
					opts.StopAfter = max(opts.StopAfter, s.sliceSubsets+m.Evals)
				}
			}
		}
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
		data, err := resume.Marshal()
		if err == nil {
			err = s.writeFile(j.ID, checkpointFile, append(data, '\n'))
		}
		if err != nil {
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
// when the job left the queued state while pending (cancelled).
func (j *Job) claim(cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
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
