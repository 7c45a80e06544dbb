// Command uavserve runs the deployment service: an HTTP API over a durable
// job directory and a bounded solver pool (see internal/server and
// DESIGN.md §15).
//
// Usage:
//
//	uavserve -dir jobs/                         # listen on :8080
//	uavserve -dir jobs/ -addr :9000 -workers 4
//	uavserve -dir jobs/ -checkpoint-every 5s    # tighter crash-loss bound
//
// API:
//
//	POST /v1/jobs                submit a scenario (+options) → job id
//	GET  /v1/jobs                list jobs
//	GET  /v1/jobs/{id}           one job's state and progress
//	GET  /v1/jobs/{id}/events    SSE stream: state / progress / checkpoint
//	GET  /v1/jobs/{id}/result    the finished deployment (uavdeploy -out bytes)
//	POST /v1/jobs/{id}/cancel    stop a job (resubmitting resumes it)
//	POST /v1/sweep               one scenario × many option sets
//	GET  /healthz
//
// The POST body is a saved scenario file (exactly what `uavgen -out` writes),
// optionally with an "options" object alongside "scenario"; see the README's
// "Serving deployments" section for a curl walkthrough.
//
// Jobs are deduplicated by a deterministic id (scenario fingerprint +
// result-shaping options), every job checkpoints durably on a cadence, and on
// SIGINT/SIGTERM the server stops each solve at its next checkpoint and
// persists it — so restarting uavserve over the same -dir resumes every
// unfinished job and finishes with byte-identical deployments. kill -9 loses
// at most one checkpoint interval of work, never the job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/uav-coverage/uavnet/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uavserve:", err)
		os.Exit(1)
	}
}

// The server's timeouts. A client that never finishes its request header
// is cut after readHeaderTimeout, and an idle keep-alive connection after
// idleTimeout. There is deliberately no WriteTimeout: its deadline runs for
// the whole response, so it would cut an SSE stream on
// /v1/jobs/{id}/events. Nor is there a ReadTimeout, which bounds the read
// of the whole request body and so would have to allow for the slowest
// upload of the largest scenario the server accepts.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the service's HTTP server: h on addr, request
// contexts derived from ctx, and the given header-read and idle timeouts.
func newHTTPServer(ctx context.Context, addr string, h http.Handler, header, idle time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return ctx },
		ReadHeaderTimeout: header,
		IdleTimeout:       idle,
	}
}

func run() error {
	var (
		dir             = flag.String("dir", "", "durable job directory (required)")
		addr            = flag.String("addr", ":8080", "listen address")
		workers         = flag.Int("workers", 2, "concurrent solver jobs")
		checkpointEvery = flag.Duration("checkpoint-every", 15*time.Second, "durable checkpoint cadence per running job")
		progressEvery   = flag.Duration("progress-every", time.Second, "SSE progress snapshot cadence")
	)
	flag.Parse()
	if *dir == "" {
		return errors.New("-dir is required")
	}

	logger := log.New(os.Stderr, "uavserve: ", log.LstdFlags)
	srv, err := server.New(server.Config{
		Dir:             *dir,
		Workers:         *workers,
		CheckpointEvery: *checkpointEvery,
		ProgressEvery:   *progressEvery,
		Logf:            logger.Printf,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv.Start(ctx)

	httpSrv := newHTTPServer(ctx, *addr, srv.Handler(), readHeaderTimeout, idleTimeout)
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s, jobs in %s", *addr, *dir)

	select {
	case err := <-httpErr:
		stop()
		srv.Wait()
		return err
	case <-ctx.Done():
		logger.Printf("shutting down: checkpointing running jobs")
		// Workers first: each running job persists its checkpoint and returns
		// to queued before the HTTP listener closes.
		srv.Wait()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		logger.Printf("all jobs checkpointed; restart with the same -dir to resume")
		return nil
	}
}
