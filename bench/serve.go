package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/server"
)

// The serve-mix job classes: small enumeration jobs of about a tenth of a
// second, and long ones that run for several checkpoint slices.
func smallJob(seed int64) uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{AreaSide: 2400, CellSide: 400, N: 150, K: 5, CMin: 20, CMax: 60,
		Distribution: uavnet.UniformUsers, Seed: seed}
}

func longJob(seed int64) uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{AreaSide: 3200, CellSide: 400, N: 800, K: 5, CMin: 40, CMax: 120,
		Distribution: uavnet.UniformUsers, Seed: seed}
}

// jobOptions are every submitted job's options: the enumeration at s = 3
// on one goroutine, so the server's procs workers use procs processors.
var jobOptions = server.JobOptions{S: 3, Workers: 1}

// serveConfig is the job server's configuration under load.
func serveConfig(dir string) server.Config {
	return server.Config{Dir: dir, Workers: procs, CheckpointEvery: 100 * time.Millisecond}
}

// Request kinds of the mix.
const (
	kindSmall = iota
	kindLong
	kindResubmit
)

// requestsPerClient fixes the load's size from the run length, in whole
// blocks of the mix.
func requestsPerClient(seconds int) int { return len(mixBlock) * perSecond(0.5)(seconds) }

// request is one planned request of a client.
type request struct {
	client, index, kind int
	// sc is the job's scenario; a resubmission shares its original's.
	sc   *uavnet.Scenario
	body []byte
	// of is, for a resubmission, the index of the request it repeats.
	of int
}

// mixBlock is the request mix: every block of ten consecutive requests of a
// client holds seven new small jobs, one new long job and two resubmissions
// of the client's own earlier jobs, in seeded order. Fixed proportions in
// every block keep the latency distribution the same shape for every seed
// and run length, and make a plan's first blocks independent of its length.
var mixBlock = [10]int{kindSmall, kindSmall, kindSmall, kindSmall, kindSmall, kindSmall, kindSmall,
	kindLong, kindResubmit, kindResubmit}

// planClient draws one client's n requests. The first request always
// creates a job.
func planClient(seed int64, client, n int) ([]*request, error) {
	rng := rand.New(rand.NewSource(scenarioSeed(seed, 1<<19+client)))
	plan := make([]*request, 0, n)
	var created []int
	for len(plan) < n {
		kinds := mixBlock
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		if len(plan) == 0 && kinds[0] == kindResubmit {
			j := slices.IndexFunc(kinds[:], func(k int) bool { return k != kindResubmit })
			kinds[0], kinds[j] = kinds[j], kinds[0]
		}
		for _, kind := range kinds[:min(len(kinds), n-len(plan))] {
			i := len(plan)
			req := &request{client: client, index: i, kind: kind}
			plan = append(plan, req)
			if kind == kindResubmit {
				orig := plan[created[rng.Intn(len(created))]]
				req.sc, req.body, req.of = orig.sc, orig.body, orig.index
				continue
			}
			spec := smallJob
			if kind == kindLong {
				spec = longJob
			}
			sc, err := uavnet.GenerateScenario(spec(scenarioSeed(seed, client<<12+i)))
			if err != nil {
				return nil, err
			}
			if req.body, err = submitBody(sc); err != nil {
				return nil, err
			}
			req.sc = sc
			created = append(created, i)
		}
	}
	return plan, nil
}

// submitBody is the POST /v1/jobs body for a scenario: the saved-scenario
// envelope plus the job options.
func submitBody(sc *uavnet.Scenario) ([]byte, error) {
	data, err := uavnet.MarshalScenario(sc)
	if err != nil {
		return nil, err
	}
	var env struct {
		Version  int             `json:"version"`
		Scenario json.RawMessage `json:"scenario"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Version  int               `json:"version"`
		Scenario json.RawMessage   `json:"scenario"`
		Options  server.JobOptions `json:"options"`
	}{env.Version, env.Scenario, jobOptions})
}

// sample is one request's outcome. Times are on the run's clock: request
// sent, submit answered, SSE "running" seen (0 if the job was finished
// before the stream opened), terminal state seen, result read.
type sample struct {
	req                               *request
	status                            int
	id                                string
	start, posted, running, done, end int64
	checkpoints                       int
	result                            []byte
	err                               error
	served                            int
	evaluated                         int64
}

// liveServer is an in-process job server behind a loopback listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	cancel context.CancelFunc
	served chan error
	base   string
}

// startServer builds a server over dir, starts its workers and serves its
// API on a loopback port.
func startServer(dir string) (*liveServer, error) {
	srv, err := server.New(serveConfig(dir))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		srv.Wait()
		return nil, err
	}
	l := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, cancel: cancel,
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the workers down (ending open event streams), then the HTTP
// server, and waits for both.
func (l *liveServer) stop() error {
	l.cancel()
	l.srv.Wait()
	err := l.hs.Shutdown(context.Background())
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns the load's HTTP client: at most procs connections.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}}
}

// do runs one request: POST the job, follow its event stream to a terminal
// state, then GET the result.
func do(client *http.Client, base string, req *request, clock func() int64) *sample {
	s := &sample{req: req, start: clock()}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(req.body))
	if err != nil {
		s.err = err
		return s
	}
	body, err := readBody(resp)
	s.posted, s.status = clock(), resp.StatusCode
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	var sum struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		s.err = fmt.Errorf("submit answer: %w", err)
		return s
	}
	s.id = sum.ID
	if err := s.follow(client, base, clock); err != nil {
		s.err = err
		return s
	}
	resp, err = client.Get(base + "/v1/jobs/" + s.id + "/result")
	if err == nil {
		s.result, err = readBody(resp)
	}
	s.end = clock()
	if err != nil {
		s.err = fmt.Errorf("result: %w", err)
	}
	return s
}

// follow reads the job's event stream until a terminal state, which must
// be done.
func (s *sample) follow(client *http.Client, base string, clock func() int64) error {
	resp, err := client.Get(base + "/v1/jobs/" + s.id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("event: %w", err)
		}
		switch {
		case ev.Type == "checkpoint":
			s.checkpoints++
		case ev.Type == "state" && ev.State == server.JobRunning && s.running == 0:
			s.running = clock()
		case ev.Type == "state" && ev.State == server.JobDone:
			s.done = clock()
			_, err := io.Copy(io.Discard, resp.Body) // drain so the connection is reused
			return err
		case ev.Type == "state" && (ev.State == server.JobFailed || ev.State == server.JobCancelled):
			return fmt.Errorf("job %s ended %s: %s", s.id, ev.State, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("event stream of job %s ended without a terminal state", s.id)
}

// readBody reads and closes a response body, failing on a non-2xx status.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// serveRun is one load run against a fresh server.
type serveRun struct {
	dir     string
	plans   [][]*request
	samples []*sample // client by client, in request order
	wallS   float64
}

// runServeLoad plans the clients' requests (untimed), starts a server over
// a fresh job directory, and drives the closed loop: each client sends its
// next request only after the previous one's result is read, and sends
// none but its first after the run's overrun deadline.
func runServeLoad(cfg config, perClient int, clock func() int64) (*serveRun, error) {
	plans := make([][]*request, procs)
	for c := range plans {
		plan, err := planClient(cfg.seed, c, perClient)
		if err != nil {
			return nil, err
		}
		plans[c] = plan
	}
	run := &serveRun{dir: filepath.Join(cfg.scratch, "jobs"), plans: plans}
	live, err := startServer(run.dir)
	if err != nil {
		return nil, err
	}
	client := newClient()
	out := make([][]*sample, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(overrun * time.Duration(cfg.seconds) * time.Second)
	for c, plan := range plans {
		wg.Add(1)
		go func(c int, plan []*request) {
			defer wg.Done()
			for i, req := range plan {
				if i > 0 && time.Now().After(deadline) {
					return
				}
				out[c] = append(out[c], do(client, live.base, req, clock))
			}
		}(c, plan)
	}
	wg.Wait()
	run.wallS = time.Since(start).Seconds()
	client.CloseIdleConnections()
	if err := live.stop(); err != nil {
		return nil, err
	}
	for _, samples := range out {
		run.samples = append(run.samples, samples...)
	}
	return run, nil
}

// checkServe validates every request outside the timed load. A new job
// must answer 201 and a resubmission 200; every job must end done; a new
// job's deployment must pass Verify; a resubmission must return its
// original's bytes; and the results of compares seeded requests must equal
// the bytes a solo solve saves. It returns served_total over the first
// pinnedJobs new jobs of each client, and whether every client ran that
// many.
func checkServe(cfg config, t *tally, run *serveRun, compares int) (served int, pinned bool) {
	byReq := map[[2]int]*sample{}
	newJobs := make([]int, procs)
	for _, s := range run.samples {
		byReq[[2]int{s.req.client, s.req.index}] = s
		if s.err == nil {
			s.err = checkSample(s, byReq)
		}
		t.op(s.err)
		if s.err == nil && s.req.kind != kindResubmit {
			if newJobs[s.req.client] < pinnedJobs {
				served += s.served
			}
			newJobs[s.req.client]++
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for k := 0; k < compares && k < len(run.samples); k++ {
		if s := run.samples[rng.Intn(len(run.samples))]; s.err == nil {
			t.op(compareSolo(cfg, s))
		}
	}
	return served, slices.Min(newJobs) >= pinnedJobs
}

// pinnedJobs is how many leading new jobs per client served_total sums.
const pinnedJobs = 10

// checkSample checks one request's answer; byReq maps (client, index) to
// the samples checked so far.
func checkSample(s *sample, byReq map[[2]int]*sample) error {
	want := http.StatusCreated
	if s.req.kind == kindResubmit {
		want = http.StatusOK
	}
	if s.status != want {
		return fmt.Errorf("request %d/%d: submit status %d, want %d", s.req.client, s.req.index, s.status, want)
	}
	if s.req.kind == kindResubmit {
		orig := byReq[[2]int{s.req.client, s.req.of}]
		if orig == nil || orig.err != nil || !bytes.Equal(orig.result, s.result) {
			return fmt.Errorf("request %d/%d: resubmission result differs from the original's", s.req.client, s.req.index)
		}
		return nil
	}
	var dep uavnet.Deployment
	if err := json.Unmarshal(s.result, &dep); err != nil {
		return fmt.Errorf("request %d/%d: result: %w", s.req.client, s.req.index, err)
	}
	in, err := uavnet.NewInstance(s.req.sc)
	if err != nil {
		return err
	}
	if rep := uavnet.Verify(in, &dep); !rep.OK() {
		return fmt.Errorf("request %d/%d: deployment fails Verify: %v", s.req.client, s.req.index, rep)
	}
	s.served, s.evaluated = dep.Served, dep.SubsetsEvaluated
	return nil
}

// compareSolo solves the request's scenario alone and checks that the
// server returned exactly the bytes SaveDeployment writes for it.
func compareSolo(cfg config, s *sample) error {
	in, err := uavnet.NewInstance(s.req.sc)
	if err != nil {
		return err
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: jobOptions.S, Workers: procs})
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.scratch, "solo.json")
	if err := uavnet.SaveDeployment(path, dep); err != nil {
		return err
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, s.result) {
		return fmt.Errorf("request %d/%d: server result differs from a solo solve's saved deployment", s.req.client, s.req.index)
	}
	return nil
}

// restarts times server set-up — New over the job directory the load left
// (rescanning every job), Start, and the listener — and returns the median
// over n restarts. Each restarted server must answer /healthz.
func restarts(t *tally, dir string, n int) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		live, err := startServer(dir)
		d := time.Since(start).Seconds()
		if err != nil {
			return 0, err
		}
		times = append(times, d)
		client := newClient()
		resp, err := client.Get(live.base + "/healthz")
		if err == nil {
			_, err = readBody(resp)
		}
		client.CloseIdleConnections()
		t.op(err)
		if err := live.stop(); err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// runServeMix is serve-mix's untraced run.
func runServeMix(cfg config, t *tally) (map[string]Metric, error) {
	t0 := time.Now()
	clock := func() int64 { return int64(time.Since(t0)) }
	run, err := runServeLoad(cfg, requestsPerClient(cfg.seconds), clock)
	if err != nil {
		return nil, err
	}
	served, pinned := checkServe(cfg, t, run, 10)
	if pinned {
		t.op(checkPin(cfg, served))
	}
	setupS, err := restarts(t, run.dir, 5)
	if err != nil {
		return nil, err
	}
	var roundTrip, dedupe []float64
	var evals float64
	for _, s := range run.samples {
		if s.err != nil {
			continue
		}
		rt := float64(s.end-s.start) / ms
		if s.req.kind == kindResubmit {
			dedupe = append(dedupe, rt)
			continue
		}
		roundTrip = append(roundTrip, rt)
		evals += float64(s.evaluated)
	}
	if len(roundTrip) == 0 {
		return nil, fmt.Errorf("every new job failed")
	}
	fmt.Fprintf(cfg.out, "serve-mix: %d of %d requests (%d new jobs, %d resubmissions) in %.2f s; round trip p90 %.1f ms; dedupe p50 %.2f ms; served_total %d\n",
		len(run.samples), procs*requestsPerClient(cfg.seconds), len(roundTrip), len(dedupe), run.wallS,
		percentile(roundTrip, 90), median(dedupe), served)
	// The server's evaluation throughput is over the whole load: an event
	// stream under CPU contention reports "running" late, so per-job run
	// times read from it would undercount.
	return endToEnd(setupS, roundTrip, float64(len(run.samples))/run.wallS, evals/run.wallS), nil
}

// probeRequests is the per-client request count of the serve probe that
// measures the server layer in the other workloads' traced runs.
const probeRequests = 6

// traceServe runs a load of perClient requests per client on the trace
// clock, checks it, and records one span tree per request: the submit, the
// wait from the submit's answer to the "running" event, the run to the
// terminal event, and the result read.
func traceServe(cfg config, t *tally, tr *Tracer, perClient, compares int) (*serveRun, error) {
	run, err := runServeLoad(cfg, perClient, tr.Now)
	if err != nil {
		return nil, err
	}
	checkServe(cfg, t, run, compares)
	for _, s := range run.samples {
		if s.err != nil {
			continue
		}
		sub := fmt.Sprintf("client-%d/request-%d", s.req.client, s.req.index)
		dedupe := int64(0)
		if s.req.kind == kindResubmit {
			dedupe = 1
		}
		id := tr.Add(Span{Name: spanRequest, Start: s.start, End: s.end, Sub: sub,
			Counts: map[string]int64{"dedupe": dedupe, "checkpoints": int64(s.checkpoints)}})
		tr.Add(Span{Name: spanSubmit, Parent: id, Start: s.start, End: s.posted, Sub: sub})
		if s.running > 0 {
			tr.Add(Span{Name: spanQueue, Parent: id, Start: s.posted, End: s.running, Sub: sub})
			tr.Add(Span{Name: spanRun, Parent: id, Start: s.running, End: s.done, Sub: sub})
		}
		tr.Add(Span{Name: spanResult, Parent: id, Start: s.done, End: s.end, Sub: sub})
	}
	return run, nil
}

// serveProbe measures the server layer in a traced run of another
// workload with a short load of the serve-mix traffic.
func serveProbe(cfg config, t *tally, tr *Tracer) error {
	_, err := traceServe(cfg, t, tr, probeRequests, 2)
	return err
}

// traceServeMix is serve-mix's traced run: the full load under spans, then
// the library layers measured solo on three of the first client's job
// scenarios (its first two small jobs and its first long one) and the
// portfolio members on the long one.
func traceServeMix(cfg config, t *tally, tr *Tracer) (map[string]Metric, error) {
	run, err := traceServe(cfg, t, tr, requestsPerClient(cfg.seconds), 10)
	if err != nil {
		return nil, err
	}
	opts := uavnet.Options{S: jobOptions.S, Workers: procs}
	var long *uavnet.Instance // every block of the mix holds a long job
	small := 0
	for _, req := range run.plans[0] {
		isLong := req.kind == kindLong && long == nil
		if !isLong && (req.kind != kindSmall || small == 2) {
			continue
		}
		sub := fmt.Sprintf("client-%d/request-%d", req.client, req.index)
		in, err := traceBuild(tr, req.sc, 0, sub)
		if err != nil {
			return nil, err
		}
		if err := traceScenario(cfg, t, tr, in, opts, sub, int64(req.index)); err != nil {
			return nil, err
		}
		if isLong {
			long = in
		} else {
			small++
		}
	}
	if err := traceMembers(t, tr, long, opts, 500); err != nil {
		return nil, err
	}
	return layerMetrics(tr.Spans()), nil
}
