package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// Config tunes a Server.
type Config struct {
	// Dir is the durable job directory (created if absent). Every submitted
	// job persists its scenario, options, checkpoints, final deployment, and
	// any failed or cancelled state here; a new Server over the same Dir
	// resumes where the old one stopped.
	Dir string
	// Workers bounds how many jobs solve concurrently (default 2).
	Workers int
	// CheckpointEvery is the durability cadence: each running job persists a
	// resumable checkpoint at least this often (default 15s). Lower values
	// bound the work lost to a crash more tightly at the cost of more
	// stop/resume overhead.
	CheckpointEvery time.Duration
	// ProgressEvery throttles the solver progress snapshots streamed to SSE
	// subscribers (default 1s).
	ProgressEvery time.Duration
	// Logf, when non-nil, receives operational log lines (e.g. a state file
	// that failed to persist after the job already reached a terminal state).
	Logf func(format string, args ...any)
}

// Server is the deployment-as-a-service engine: an HTTP API over a durable
// job store and a bounded solver pool. Construct with New, serve Handler()
// over any http.Server, and call Start to begin solving. See the package
// comment for the crash-safety contract.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job //uavlint:guard mu
	pending []*Job          //uavlint:guard mu
	requeue []*Job          //uavlint:guard mu -- rescanned unfinished jobs, enqueued by Start
	ctx     context.Context //uavlint:guard mu -- the Start context; nil until Start
	wg      sync.WaitGroup
	write   func(path string, data []byte, perm os.FileMode) error // every job file write: atomicfile.WriteFile outside tests
	// sliceSubsets, when positive, also ends every slice after that much
	// work (see solve), so tests get multi-slice jobs by construction rather
	// than by wall time. Zero outside tests: slices are time-based.
	sliceSubsets int64
}

// New builds a Server over dir, rescanning any jobs a previous process left
// behind. Unfinished jobs are re-enqueued when Start is called.
//
//uavlint:allow lockguard -- constructor: the Server is not published until New returns, so pre-publication writes race with nothing
func New(cfg Config) (*Server, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("server: Config.Dir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 15 * time.Second
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{cfg: cfg, jobs: make(map[string]*Job), write: atomicfile.WriteFile}
	s.cond = sync.NewCond(&s.mu)
	requeue, err := s.rescan()
	if err != nil {
		return nil, err
	}
	s.requeue = requeue
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	return s, nil
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// logf reports an operational problem through Config.Logf, if set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// doneCh returns the Start context's done channel (nil — never ready — when
// Start has not run, e.g. handler-only tests).
func (s *Server) doneCh() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx == nil {
		return nil
	}
	return s.ctx.Done()
}

// lookup finds a job by id.
func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// submit registers (or dedupes against) the job for a scenario and valid
// options; its only error is a failure to persist a new job. The boolean
// reports whether the job is new. Cancelled and failed duplicates re-enter
// the queue, resuming from their persisted checkpoint.
func (s *Server) submit(sc *uavnet.Scenario, o JobOptions) (*Job, bool, error) {
	id := JobID(sc, o)
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		if j.reQueue() {
			if err := s.persistState(j); err != nil {
				s.logf("job %s: persist requeued state: %v", id, err)
			}
			j.publish(Event{Type: "state", State: JobQueued})
			s.enqueue(j)
		}
		return j, false, nil
	}
	j := &Job{ID: id, Scenario: sc, Options: o, state: JobQueued}
	s.jobs[id] = j
	s.mu.Unlock()
	if err := s.persistNew(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		return nil, false, fmt.Errorf("persist job: %w", err)
	}
	s.enqueue(j)
	return j, true, nil
}

// --- HTTP wire types ---

// submitRequest is the POST /v1/jobs body: a saved scenario file (the exact
// bytes `uavgen -out` writes) with an optional options object alongside.
type submitRequest struct {
	Version  int             `json:"version"`
	Scenario json.RawMessage `json:"scenario"`
	Options  JobOptions      `json:"options,omitempty"`
}

// sweepRequest is the POST /v1/sweep body: one scenario, many option sets.
type sweepRequest struct {
	Version  int             `json:"version"`
	Scenario json.RawMessage `json:"scenario"`
	Options  []JobOptions    `json:"options"`
}

// jobSummary is the wire form of a job's current state.
type jobSummary struct {
	ID       string        `json:"id"`
	State    JobState      `json:"state"`
	Error    string        `json:"error,omitempty"`
	Options  JobOptions    `json:"options"`
	Progress *ProgressInfo `json:"progress,omitempty"`
}

func summarize(j *Job) jobSummary {
	state, errMsg := j.State()
	return jobSummary{ID: j.ID, State: state, Error: errMsg, Options: j.Options, Progress: j.Progress()}
}

// writeJSONResponse writes v with the given status.
func writeJSONResponse(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return
	}
	w.Write(append(data, '\n')) //uavlint:allow errdrop -- best-effort HTTP response; the client owns detection of a torn body
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONResponse(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeScenario re-assembles a request's version + scenario fields into the
// saved-scenario envelope and runs it through the library's strict decoder,
// so a typo'd scenario field is rejected with an error naming it.
func decodeScenario(version int, raw json.RawMessage) (*uavnet.Scenario, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("request has no scenario object")
	}
	envelope, err := json.Marshal(struct {
		Version  int             `json:"version"`
		Scenario json.RawMessage `json:"scenario"`
	}{version, raw})
	if err != nil {
		return nil, err
	}
	return uavnet.UnmarshalScenario(envelope)
}

// decodeStrictBody decodes an HTTP body into v, rejecting unknown fields: a
// misspelled option must 400 with the field name, never solve a subtly
// different problem.
func decodeStrictBody(r *http.Request, v any) error {
	data, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, 256<<20))
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// --- Handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSONResponse(w, http.StatusOK, map[string]any{"status": "ok", "jobs": n})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := decodeStrictBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sc, err := decodeScenario(req.Version, req.Scenario)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := req.Options.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, created, err := s.submit(sc, req.Options)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSONResponse(w, code, summarize(j))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := decodeStrictBody(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	sc, err := decodeScenario(req.Version, req.Scenario)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Options) == 0 {
		httpError(w, http.StatusBadRequest, "sweep needs at least one options entry")
		return
	}
	// Validate the whole sweep before submitting any of it: a sweep is one
	// experiment, and half-submitting it on a typo in entry 7 would leave the
	// client guessing which points exist.
	for i, o := range req.Options {
		if err := o.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "options[%d]: %v", i, err)
			return
		}
	}
	summaries := make([]jobSummary, 0, len(req.Options))
	for i, o := range req.Options {
		j, _, err := s.submit(sc, o)
		if err != nil {
			httpError(w, http.StatusInternalServerError, "options[%d]: %v", i, err)
			return
		}
		summaries = append(summaries, summarize(j))
	}
	writeJSONResponse(w, http.StatusOK, map[string]any{"jobs": summaries})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })
	summaries := make([]jobSummary, len(jobs))
	for i, j := range jobs {
		summaries[i] = summarize(j)
	}
	writeJSONResponse(w, http.StatusOK, map[string]any{"jobs": summaries})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSONResponse(w, http.StatusOK, summarize(j))
}

// handleResult serves the finished deployment — byte-identical to what a solo
// `uavdeploy -out` run writes for the same problem, so clients can cmp.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	state, errMsg := j.State()
	if state != JobDone {
		httpError(w, http.StatusConflict, "job is %s%s", state, suffixIf(errMsg))
		return
	}
	j.mu.Lock()
	data := j.result
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //uavlint:allow errdrop -- best-effort HTTP response; the client owns detection of a torn body
}

func suffixIf(errMsg string) string {
	if errMsg == "" {
		return ""
	}
	return ": " + errMsg
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	acted := j.requestCancel()
	if acted == "" {
		state, errMsg := j.State()
		httpError(w, http.StatusConflict, "job is already %s%s", state, suffixIf(errMsg))
		return
	}
	if acted == JobQueued {
		// The job never started; it is terminal right now.
		if err := s.persistState(j); err != nil {
			s.logf("job %s: persist cancelled state: %v", j.ID, err)
		}
	}
	writeJSONResponse(w, http.StatusAccepted, summarize(j))
}

// handleEvents streams a job's lifecycle as server-sent events: an immediate
// replay of the current state (and latest progress), then live "state",
// "progress", and "checkpoint" events until the job reaches a terminal state
// or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ch, replay := j.subscribe()
	defer j.unsubscribe(ch)
	for _, ev := range replay {
		if !writeEvent(w, fl, ev) {
			return
		}
		if ev.Type == "state" && ev.State.terminal() {
			return
		}
	}
	shutdown := s.doneCh()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-shutdown:
			// Server shutting down: end the stream cleanly; the client
			// reconnects after restart and replays the current state.
			return
		case ev := <-ch:
			if !writeEvent(w, fl, ev) {
				return
			}
			if ev.Type == "state" && ev.State.terminal() {
				return
			}
		}
	}
}

// writeEvent emits one SSE frame; false means the client is gone.
func writeEvent(w http.ResponseWriter, fl http.Flusher, ev Event) bool {
	data, err := json.Marshal(ev)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
		return false
	}
	fl.Flush()
	return true
}
