package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

func TestParseShard(t *testing.T) {
	good := map[string]uavnet.ShardSpec{
		"0/1":  {Index: 0, Count: 1},
		"0/4":  {Index: 0, Count: 4},
		"3/4":  {Index: 3, Count: 4},
		"7/16": {Index: 7, Count: 16},
	}
	for in, want := range good {
		got, err := parseShard(in)
		if err != nil || got != want {
			t.Errorf("parseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "3", "/", "1/", "/4", "4/4", "5/4", "-1/4", "0/0", "0/-2", "a/4", "0/b", "0/4/2", "0 /4"} {
		if got, err := parseShard(in); err == nil {
			t.Errorf("parseShard(%q) = %v, want error", in, got)
		}
	}
}

// writeTestScenario generates a small 9-cell scenario and saves it, returning
// the path and the precomputed instance for reference runs.
func writeTestScenario(t *testing.T, dir string) (string, *uavnet.Instance) {
	t.Helper()
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 1500, CellSide: 500, N: 40, K: 3, CMin: 10, CMax: 25, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "scenario.json")
	if err := uavnet.SaveScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	return path, in
}

// referenceDeployment solves the instance single-process and renders it the
// way SaveDeployment would, for byte comparison against the CLI output.
func referenceDeployment(t *testing.T, in *uavnet.Instance, opts uavnet.Options) []byte {
	t.Helper()
	dep, err := uavnet.DeployInstance(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func TestWorkerMergeMatchesSingleProcess(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)

	const shards = 3
	parts := make([]string, shards)
	for i := range parts {
		parts[i] = filepath.Join(dir, fmt.Sprintf("part%d.ckpt", i))
		args := []string{
			"-scenario", scPath,
			"-shard", fmt.Sprintf("%d/%d", i, shards),
			"-out", parts[i],
			"-s", "2",
		}
		if err := workerCmd(args); err != nil {
			t.Fatalf("worker %d/%d: %v", i, shards, err)
		}
	}

	depPath := filepath.Join(dir, "merged.json")
	args := append([]string{"-scenario", scPath, "-out", depPath, "-verify", "-s", "2"}, parts...)
	if err := mergeCmd(args); err != nil {
		t.Fatalf("merge: %v", err)
	}

	got, err := os.ReadFile(depPath)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDeployment(t, in, uavnet.Options{S: 2})
	if string(got) != string(want) {
		t.Errorf("merged deployment differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}

func TestWorkerStopResumeThenMerge(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)

	part0 := filepath.Join(dir, "part0.ckpt")
	part1 := filepath.Join(dir, "part1.ckpt")

	// Interrupt shard 0 deterministically mid-range: 9 cells at s=2 give
	// C(9,2)=36 subsets, so shard 0/2 owns [0,18) and -stop-after 3 cuts it.
	err := workerCmd([]string{
		"-scenario", scPath, "-shard", "0/2", "-out", part0, "-s", "2", "-stop-after", "3",
	})
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("interrupted worker error = %v, want a hint to -resume", err)
	}
	cp, err := uavnet.LoadCheckpoint(part0)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cursor != 3 || cp.Complete() {
		t.Fatalf("interrupted shard checkpoint: cursor %d, complete %v; want 3, false", cp.Cursor, cp.Complete())
	}

	// Resume shard 0 to completion, run shard 1 straight through, merge.
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "0/2", "-out", part0, "-s", "2", "-resume", part0,
	}); err != nil {
		t.Fatalf("resumed worker: %v", err)
	}
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "1/2", "-out", part1, "-s", "2",
	}); err != nil {
		t.Fatalf("worker 1/2: %v", err)
	}
	depPath := filepath.Join(dir, "merged.json")
	if err := mergeCmd([]string{"-scenario", scPath, "-out", depPath, "-s", "2", part0, part1}); err != nil {
		t.Fatalf("merge: %v", err)
	}

	got, err := os.ReadFile(depPath)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDeployment(t, in, uavnet.Options{S: 2})
	if string(got) != string(want) {
		t.Errorf("merge after stop+resume differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
}

func TestMergeIncompleteWritesResumableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)

	part0 := filepath.Join(dir, "part0.ckpt")
	part1 := filepath.Join(dir, "part1.ckpt")
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "0/2", "-out", part0, "-s", "2", "-stop-after", "3",
	}); err == nil {
		t.Fatal("interrupted worker returned nil error")
	}
	if err := workerCmd([]string{
		"-scenario", scPath, "-shard", "1/2", "-out", part1, "-s", "2",
	}); err != nil {
		t.Fatal(err)
	}

	mergedCkpt := filepath.Join(dir, "merged.ckpt")
	err := mergeCmd([]string{"-scenario", scPath, "-checkpoint", mergedCkpt, "-s", "2", part0, part1})
	ie, ok := err.(incompleteError)
	if !ok {
		t.Fatalf("incomplete merge error = %v (%T), want incompleteError", err, err)
	}
	if len(ie.remaining) != 1 || ie.remaining[0].Start != 3 {
		t.Errorf("remaining = %v, want one span starting at 3", ie.remaining)
	}

	// The merged checkpoint must resume under plain unsharded options to the
	// exact single-process deployment.
	cp, err := uavnet.LoadCheckpoint(mergedCkpt)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Resume: cp})
	if err != nil {
		t.Fatal(err)
	}
	data, err := uavnet.MarshalDeployment(dep)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceDeployment(t, in, uavnet.Options{S: 2})
	if string(append(data, '\n')) != string(want) {
		t.Errorf("resumed merge differs from single-process run:\n got: %s\nwant: %s", data, want)
	}
}

// TestWorkerRefusesOptionsBeforeBuildingInstance gives each worker and each
// merge a bad option and a scenario path that names no file: a command that
// built the instance before checking its options would fail on the missing
// file. merge has only the flags that shape the enumeration.
func TestWorkerRefusesOptionsBeforeBuildingInstance(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "part.ckpt")
	missing := filepath.Join(dir, "missing.json")
	for flag, field := range map[string]string{"-s": "S", "-workers": "Workers", "-max-subsets": "MaxSubsets", "-stop-after": "StopAfter"} {
		err := workerCmd([]string{"-scenario", missing, "-shard", "0/2", "-out", out, flag, "-1"})
		if err == nil || !strings.Contains(err.Error(), "core: "+field+" must") {
			t.Errorf("worker %s -1: err = %v, want the %s rule", flag, err, field)
		}
		if flag != "-s" && flag != "-max-subsets" {
			continue
		}
		err = mergeCmd([]string{"-scenario", missing, "-out", out, flag, "-1", out})
		if err == nil || !strings.Contains(err.Error(), "core: "+field+" must") {
			t.Errorf("merge %s -1: err = %v, want the %s rule", flag, err, field)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused command wrote %s (stat: %v)", out, err)
	}
}

// TestRefusesBadAggCellBeforeReadingScenario gives each worker and merge an
// -agg-cell side that demand aggregation refuses and a scenario path that
// names no file: a command that read the scenario before checking the side
// would fail on the missing file, and one that ignored the side would write
// a per-user checkpoint.
func TestRefusesBadAggCellBeforeReadingScenario(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "part.ckpt")
	missing := filepath.Join(dir, "missing.json")
	for _, side := range []string{"-250", "NaN", "Inf", "-Inf"} {
		err := workerCmd([]string{"-scenario", missing, "-shard", "0/2", "-out", out, "-agg-cell", side})
		if err == nil || !strings.Contains(err.Error(), "demand-cell side") {
			t.Errorf("worker -agg-cell %s: err = %v, want the demand-cell side rule", side, err)
		}
		err = mergeCmd([]string{"-scenario", missing, "-out", out, "-agg-cell", side, out})
		if err == nil || !strings.Contains(err.Error(), "demand-cell side") {
			t.Errorf("merge -agg-cell %s: err = %v, want the demand-cell side rule", side, err)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused command wrote %s (stat: %v)", out, err)
	}
}

// TestWorkerRefusesBadFlagsBeforeReadingScenario gives a worker each run
// flag it refuses and a scenario path that names no file: a worker that read
// the scenario first would fail on the missing file instead, and one that
// ignored the flag would solve the shard.
func TestWorkerRefusesBadFlagsBeforeReadingScenario(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "part.ckpt")
	missing := filepath.Join(dir, "missing.json")
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-timeout", "-5s"}, "must be non-negative"},
		{[]string{"-progress", "-1s"}, "must be non-negative"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		err := workerCmd(append([]string{"-scenario", missing, "-shard", "0/2", "-out", out}, c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("worker %v: err = %v, want %q", c.flags, err, c.want)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused worker wrote %s (stat: %v)", out, err)
	}
}
