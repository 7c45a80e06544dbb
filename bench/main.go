// Command bench is uavnet's benchmark. It drives four canonical workloads
// through the public library API and the HTTP job API, checks every output,
// and prints the end-to-end metrics of an untraced run or, with --trace 1,
// the per-layer metrics of a separate traced run. README.md lists the
// workloads, the metrics and the A/B procedure. Run it through run.sh, which
// builds it from the checkout's sources:
//
//	bash bench/run.sh --workload fig6-s3 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --seed 1                     # every workload, one child process each
//	bash bench/run.sh compare A*.json -- B*.json   # A/B verdicts per metric
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 only when
// every operation succeeded and every check passed.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// buildDir holds everything a build or run leaves behind, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

// procs is the processor budget: GOMAXPROCS, solver workers, server workers
// and load clients all stay within it, so the benchmark never asks for more
// parallelism than the two-core reference machine has.
const procs = 2

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	// scratch is a fresh directory under buildDir for the run's files,
	// removed when the run ends.
	scratch string
	// out receives the human-readable lines printed before the result.
	out io.Writer
	// errs receives failure reports.
	errs io.Writer
}

// workload is one canonical workload: an untraced run for the end-to-end
// metrics and a traced run for the per-layer ones.
type workload struct {
	name   string
	run    func(cfg config, t *tally) (map[string]Metric, error)
	traced func(cfg config, t *tally, tr *Tracer) (map[string]Metric, error)
}

// workloads lists the canonical workloads in run order.
func workloads() []workload {
	var ws []workload
	for _, w := range []*solverWorkload{fig6S3, portfolioM900, agg1M} {
		ws = append(ws, workload{name: w.name, run: w.run, traced: w.traced})
	}
	return append(ws, workload{name: "serve-mix", run: runServeMix, traced: traceServeMix})
}

// tally counts attempted and failed operations; a failure is reported to
// errs as it happens and makes the run incorrect.
type tally struct {
	attempted, failed int
	errs              io.Writer
}

// op records one operation, failed when err is non-nil.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(t.errs, "bench: FAIL:", err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, " | ")+" | all (each in a child process)")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Int("seconds", 15, "run length: fixes each workload's operation count at about this many seconds of work on the reference machine")
	trace := fs.Int("trace", 0, "1 runs the traced run: per-layer metrics, spans saved to "+buildDir+"/trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: want only flags, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(procs)
	if *name == "all" {
		return runAll(names, *seed, *seconds, *trace, stdout, stderr)
	}
	for _, w := range workloads() {
		if w.name == *name {
			return runOne(w, *seed, *seconds, *trace == 1, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
	return 2
}

// runOne runs one workload in this process and prints its result line.
func runOne(w workload, seed int64, seconds int, traced bool, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := config{workload: w.name, seed: seed, seconds: seconds, scratch: scratch, out: stdout, errs: stderr}
	t := &tally{errs: stderr}
	var metrics map[string]Metric
	if traced {
		tr := NewTracer()
		metrics, err = w.traced(cfg, t, tr)
		if err == nil {
			path := filepath.Join(buildDir, "trace-"+w.name+".json")
			if err = tr.Write(path, cfg, metrics); err == nil {
				fmt.Fprintf(stdout, "%s: %d spans written to %s\n", w.name, len(tr.Spans()), path)
			}
		}
	} else {
		metrics, err = w.run(cfg, t)
		if err == nil {
			metrics["max_rss_mb"] = Metric{maxRSSMiB(), "MiB"}
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printMetrics(stdout, w.name, metrics)
	res := Result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so each reports its
// own peak memory, and prints a combined result whose metric names are
// prefixed with the workload name.
func runAll(names []string, seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := Result{Correct: true, Metrics: map[string]Metric{}}
	for _, name := range names {
		res, err := runChild(self, name, seed, seconds, trace, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			all.Correct = false
			all.Attempted++
			all.Failed++
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[name+"/"+k] = m
		}
	}
	if err := printResult(stdout, all); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !all.Correct {
		return 1
	}
	return 0
}

// runChild re-executes the benchmark for one workload, echoing its output,
// and returns the result from its last line.
func runChild(self, name string, seed int64, seconds, trace int, stdout, stderr io.Writer) (*Result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	last, waitErr, err := lastLine(cmd, stdout, stderr)
	if err != nil {
		return nil, err
	}
	res, err := parseResult(last)
	if err != nil {
		return nil, errors.Join(waitErr, err)
	}
	if waitErr != nil && res.Correct {
		return nil, waitErr
	}
	return res, nil
}

// lastLine runs cmd to completion, copying its standard output to echo (if
// non-nil) and its standard error to stderr, and returns the last line of
// its output with the command's exit error. err reports a failure to run or
// read the command at all.
func lastLine(cmd *exec.Cmd, echo, stderr io.Writer) (last string, waitErr, err error) {
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, last)
		}
	}
	io.Copy(io.Discard, pipe) // unblock the child if the scan stopped early
	waitErr = cmd.Wait()
	return last, waitErr, sc.Err()
}

// parseResult decodes a result line.
func parseResult(line string) (*Result, error) {
	var res Result
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if res.Metrics == nil {
		return nil, fmt.Errorf("result line has no metrics")
	}
	return &res, nil
}

func printResult(w io.Writer, res Result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printMetrics prints one human-readable line per metric, sorted by name.
func printMetrics(w io.Writer, workload string, metrics map[string]Metric) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-15s %-32s %14.6g %s\n", workload, k, metrics[k].Value, metrics[k].Unit)
	}
}

// maxRSSMiB returns this process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pins are each workload's served_total at seed 1, summed over its leading
// operations (see README.md). Every answer is deterministic, so a different
// value means the program now gives different answers: a failed operation.
var pins = map[string]int{
	"fig6-s3":        2748,
	"portfolio-m900": 1179,
	"agg-1m":         3388,
	"serve-mix":      2012,
}
