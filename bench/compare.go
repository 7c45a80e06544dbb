package main

import (
	"archive/tar"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/uav-coverage/uavnet/internal/atomicfile"
)

// metricDef is one metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// verdict is the A/B comparison of one metric on one workload.
type verdict struct {
	aQ1, aMed, aQ3 float64
	bQ1, bMed, bQ3 float64
	wins, pairs    int
	result         string
}

// judge applies the choosing-metrics rules to one metric's A (parent) and B
// (change) runs, paired by index:
//   - gain: B wins at least nine tenths of the pairs (ties count for neither
//     side) and the medians differ, in B's favour, by more than A's
//     interquartile distance;
//   - unresolved: either side's spread (interquartile distance over median)
//     exceeds the bound, unless every B run beats every A run;
//   - regression: B's median is worse than A's by more than bound × A's
//     median;
//   - otherwise unchanged.
//
// A metric without a bound (per-layer) is never unresolved or a regression.
func judge(a, b []float64, higherBetter bool, bound float64, hasBound bool) verdict {
	v := verdict{pairs: min(len(a), len(b))}
	v.aQ1, v.aMed, v.aQ3 = quartiles(a)
	v.bQ1, v.bMed, v.bQ3 = quartiles(b)
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := math.Max((v.aQ3-v.aQ1)/math.Abs(v.aMed), (v.bQ3-v.bQ1)/math.Abs(v.bMed))
	worse := v.bMed - v.aMed
	if higherBetter {
		worse = -worse
	}
	gain := v.pairs > 0 && 10*v.wins >= 9*v.pairs && -worse > v.aQ3-v.aQ1
	switch {
	case gain && (allBetter || !hasBound || spread <= bound):
		v.result = "gain"
	case hasBound && spread > bound && !allBetter:
		v.result = "unresolved"
	case hasBound && worse > bound*math.Abs(v.aMed):
		v.result = "regression"
	default:
		v.result = "unchanged"
	}
	return v
}

// runCompare implements `bench compare`: verdicts per (metric, workload)
// between two sets of result files, or, with -pairs, between the working
// tree and a parent revision after running them in alternating pairs.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	pairs := fs.Int("pairs", 0, "run this many alternating pairs of -parent and the working tree, then compare them")
	parent := fs.String("parent", "", "git revision for side A of -pairs (extracted with git archive)")
	out := fs.String("out", filepath.Join(buildDir, "ab"), "directory for -pairs trees and result files")
	seed := fs.Int64("seed", 1, "-pairs: workload seed")
	seconds := fs.Int("seconds", 15, "-pairs: run length")
	workload := fs.String("workload", "all", "-pairs: workload")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: bench compare [flags] A.json... -- B.json...\n       bench compare -pairs N -parent REV [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var aFiles, bFiles []string
	var err error
	if *pairs > 0 {
		if *parent == "" || fs.NArg() != 0 {
			fs.Usage()
			return 2
		}
		runArgs := []string{"--workload", *workload, "--seed", strconv.FormatInt(*seed, 10), "--seconds", strconv.Itoa(*seconds)}
		aFiles, bFiles, err = runPairs(*parent, *pairs, *out, runArgs, stderr)
	} else {
		rest := fs.Args()
		sep := -1
		for i, a := range rest {
			if a == "--" {
				sep = i
			}
		}
		if sep < 1 || sep == len(rest)-1 {
			fs.Usage()
			return 2
		}
		aFiles, bFiles = rest[:sep], rest[sep+1:]
	}
	if err == nil {
		err = compareFiles(*benchPath, aFiles, bFiles, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	return 0
}

// compareFiles prints a verdict for every metric present on both sides.
// Metric keys are "name" in single-workload results and "workload/name" in
// results of all workloads; the definition is looked up by name.
func compareFiles(benchPath string, aFiles, bFiles []string, w io.Writer) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	defs := map[string]metricDef{}
	for _, d := range append(bf.EndToEnd, bf.PerLayer...) {
		defs[d.Name] = d
	}
	a, err := loadRuns(aFiles)
	if err != nil {
		return err
	}
	b, err := loadRuns(bFiles)
	if err != nil {
		return err
	}
	var keys []string
	for k := range a {
		if _, ok := b[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-44s %-30s %-30s %-7s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, k := range keys {
		name := k[strings.LastIndex(k, "/")+1:]
		d, ok := defs[name]
		if !ok {
			continue
		}
		bound := 0.0
		if d.Bound != nil {
			bound = *d.Bound
		}
		v := judge(a[k], b[k], d.Better == "higher", bound, d.Bound != nil)
		fmt.Fprintf(w, "%-44s %-30s %-30s %3d/%-3d %s\n", k,
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.aMed, v.aQ1, v.aQ3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.bMed, v.bQ1, v.bQ3),
			v.wins, v.pairs, v.result)
	}
	return nil
}

// loadRuns reads the result line (the last line) of each file and collects
// each metric's values in file order.
func loadRuns(files []string) (map[string][]float64, error) {
	runs := map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		res, err := parseResult(lines[len(lines)-1])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: run was not correct (%d of %d operations failed)", f, res.Failed, res.Attempted)
		}
		for k, m := range res.Metrics {
			runs[k] = append(runs[k], m.Value)
		}
	}
	return runs, nil
}

// runPairs extracts the parent revision into out/parent, then runs the
// benchmark in the parent tree (A) and the working tree (B) in n pairs,
// alternating which side runs first, saving each run's result line to
// out/A-i.json and out/B-i.json.
func runPairs(parent string, n int, out string, runArgs []string, stderr io.Writer) (aFiles, bFiles []string, err error) {
	tree := filepath.Join(out, "parent")
	if err := os.RemoveAll(tree); err != nil {
		return nil, nil, err
	}
	if err := extractRevision(parent, tree); err != nil {
		return nil, nil, fmt.Errorf("extract %s: %w", parent, err)
	}
	sides := []struct {
		name, dir string
		files     *[]string
	}{{"A", tree, &aFiles}, {"B", ".", &bFiles}}
	for i := 0; i < n; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, s := range order {
			side := sides[s]
			fmt.Fprintf(stderr, "bench compare: pair %d/%d, side %s\n", i+1, n, side.name)
			line, err := runTree(side.dir, runArgs, stderr)
			if err != nil {
				return nil, nil, fmt.Errorf("side %s, pair %d: %w", side.name, i+1, err)
			}
			path := filepath.Join(out, fmt.Sprintf("%s-%d.json", side.name, i))
			if err := atomicfile.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
				return nil, nil, err
			}
			*side.files = append(*side.files, path)
		}
	}
	return aFiles, bFiles, nil
}

// runTree runs the benchmark of the checkout at dir and returns its result
// line.
func runTree(dir string, runArgs []string, stderr io.Writer) (string, error) {
	cmd := exec.Command("bash", append([]string{"bench/run.sh"}, runArgs...)...)
	cmd.Dir = dir
	last, waitErr, err := lastLine(cmd, nil, stderr)
	if err == nil {
		err = waitErr
	}
	return last, err
}

// extractRevision writes the files of a git revision into dir, the way the
// benchmark's checkouts hold them: committed files only, no git metadata.
func extractRevision(rev, dir string) error {
	cmd := exec.Command("git", "archive", "--format=tar", rev)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	err = untar(pipe, dir)
	io.Copy(io.Discard, pipe)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	return err
}

// untar extracts the directories and regular files of a tar stream into
// dir, refusing entries that would land outside it.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, h.Name)
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(filepath.Separator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			var data []byte
			if data, err = io.ReadAll(tr); err == nil {
				if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
					err = atomicfile.WriteFile(path, data, os.FileMode(h.Mode)&0o777)
				}
			}
		}
		if err != nil {
			return err
		}
	}
}
