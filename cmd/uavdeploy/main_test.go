package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

func TestAsciiMap(t *testing.T) {
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 1500, CellSide: 500, N: 30, K: 2, CMin: 10, CMax: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := asciiMap(in, dep)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 3 grid rows.
	if len(lines) != 4 {
		t.Fatalf("map has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "#") {
		t.Errorf("map shows no UAV markers:\n%s", out)
	}
	// Every grid row renders 3 cells (char + space each).
	for _, row := range lines[1:] {
		cells := strings.Fields(row)
		if len(cells) != 3 {
			t.Errorf("row %q has %d cells, want 3", row, len(cells))
		}
		for _, c := range cells {
			if c != "#" && c != "." && (c < "0" || c > "9") {
				t.Errorf("unexpected map glyph %q", c)
			}
		}
	}
}

func TestVerifyCleanDeployment(t *testing.T) {
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide: 1500, CellSide: 500, N: 30, K: 2, CMin: 10, CMax: 20, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle behind -verify must certify the facade's own deployment.
	if rep := uavnet.Verify(in, dep); !rep.OK() {
		t.Errorf("Verify reported %s on a fresh deployment", rep)
	}
	// A hand-corrupted deployment must fail it.
	dep.Served++
	if rep := uavnet.Verify(in, dep); rep.OK() {
		t.Error("Verify accepted a corrupted Served count")
	}
}

// refusal is one command line uavdeploy must refuse and the text its error
// must carry.
type refusal struct {
	flags []string
	want  string
}

// checkRefusals runs each row after base, whose -scenario names no file, and
// wants its error; a run that read the scenario before checking the flags
// would fail on the missing file instead. None of the paths in written may
// exist afterwards.
func checkRefusals(t *testing.T, base []string, rows []refusal, written ...string) {
	t.Helper()
	for _, c := range rows {
		err := run(append(slices.Clone(base), c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.flags, err, c.want)
		}
	}
	for _, path := range written {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("a refused run wrote %s (stat: %v)", path, err)
		}
	}
}

// TestRefusesBadAggCellBeforeReadingScenario gives -agg-cell sides that
// demand aggregation refuses and a scenario path that names no file: a run
// that read the scenario before checking the side would fail on the missing
// file, and one that ignored the side would solve per user.
func TestRefusesBadAggCellBeforeReadingScenario(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "dep.json")
	var rows []refusal
	for _, side := range []string{"-250", "NaN", "Inf", "-Inf"} {
		rows = append(rows, refusal{[]string{"-agg-cell", side}, "demand-cell side"})
	}
	checkRefusals(t, []string{"-scenario", filepath.Join(dir, "missing.json"), "-out", out}, rows, out)
}

// TestShardRefusesBadAggCellBeforeReadingScenario is the -agg-cell refusal
// for a shard and for a several-file -resume: one that ignored the side
// would write a per-user checkpoint or deployment.
func TestShardRefusesBadAggCellBeforeReadingScenario(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "part.ckpt")
	out := filepath.Join(dir, "dep.json")
	var rows []refusal
	for _, side := range []string{"-250", "NaN", "Inf", "-Inf"} {
		for _, door := range shardDoors(ckpt) {
			rows = append(rows, refusal{append([]string{"-agg-cell", side}, door...), "demand-cell side"})
		}
	}
	checkRefusals(t, []string{"-scenario", filepath.Join(dir, "missing.json"), "-out", out}, rows, ckpt, out)
}

// shardDoors are the two ways into a sharded enumeration: solving shard 0/2
// into ckpt, and merging ckpt with itself.
func shardDoors(ckpt string) [][]string {
	return [][]string{
		{"-shard", "0/2", "-checkpoint", ckpt},
		{"-resume", ckpt + "," + ckpt},
	}
}

// TestRefusesBadFlagsBeforeReadingScenario gives each flag value uavdeploy
// refuses and a scenario path that names no file: a run that read the
// scenario before checking the flags would fail on the missing file instead,
// and one that ignored a flag would solve and write its deployment.
func TestRefusesBadFlagsBeforeReadingScenario(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "dep.json")
	rows := []refusal{
		{[]string{"-alg", "bogus"}, "unknown -alg"},
		{[]string{"-agg-cell", "250", "-alg", "MCS"}, "supports only approAlg"},
		{[]string{"-agg-cell", "250", "-alg", "all"}, "supports only approAlg"},
		{[]string{"-agg-cell", "250", "-refine"}, "incompatible"},
		{[]string{"-timeout", "-5s"}, "must be non-negative"},
		{[]string{"-progress", "-1s"}, "must be non-negative"},
		{[]string{"stray"}, "unexpected arguments"},
	}
	for _, gw := range []string{"1;2", "100", "100,", ",200", "100,200junk", "100,200,300", "100 200",
		"x,1", "NaN,0", "0,NaN", "Inf,0", "0,-Inf", "1e999,0"} {
		rows = append(rows, refusal{[]string{"-gateway", gw}, "bad -gateway"})
	}
	for flag, field := range map[string]string{"-s": "S", "-workers": "Workers", "-max-subsets": "MaxSubsets", "-stop-after": "StopAfter"} {
		rows = append(rows, refusal{[]string{flag, "-1"}, "core: " + field + " must be non-negative"})
	}
	checkRefusals(t, []string{"-scenario", filepath.Join(dir, "missing.json"), "-out", out}, rows, out)
}

// TestShardRefusesBadFlagsBeforeReadingScenario gives a shard and a
// several-file -resume each flag they refuse and a scenario path that names
// no file: one that read the scenario first would fail on the missing file
// instead, and one that ignored the flag would solve and write its
// checkpoint or deployment.
func TestShardRefusesBadFlagsBeforeReadingScenario(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "part.ckpt")
	out := filepath.Join(dir, "dep.json")
	doors := shardDoors(ckpt)
	shard, merge := doors[0], doors[1]
	rows := []refusal{
		{[]string{"-shard", "2/2", "-checkpoint", ckpt}, "bad -shard"},
		{[]string{"-shard", "1"}, "bad -shard"},
		{[]string{"-shard", "0/2"}, "-shard needs -checkpoint"},
		{append(slices.Clone(shard), merge...), "merge several without -shard"},
		{[]string{"-resume", ckpt + ","}, "bad -resume"},
		{[]string{"-resume", "," + ckpt}, "bad -resume"},
	}
	for _, door := range doors {
		rows = append(rows,
			refusal{append([]string{"-alg", "MCS"}, door...), "needs -alg approAlg"},
			refusal{append([]string{"-alg", "all"}, door...), "needs -alg approAlg"},
			refusal{append([]string{"-gateway", "1,2"}, door...), "does not take -gateway"},
			refusal{append([]string{"-solver", "anneal"}, door...), "does not take -solver"},
			refusal{append([]string{"-solver", "portfolio"}, door...), "does not take -solver"},
			refusal{append([]string{"-timeout", "-5s"}, door...), "must be non-negative"},
			refusal{append([]string{"-progress", "-1s"}, door...), "must be non-negative"},
			refusal{append(slices.Clone(door), "stray"), "unexpected arguments"},
		)
	}
	checkRefusals(t, []string{"-scenario", filepath.Join(dir, "missing.json"), "-out", out}, rows, ckpt, out)
}

// TestShardRefusesOptionsBeforeBuildingInstance gives a shard and a
// several-file -resume each option Options.Validate refuses and a scenario
// path that names no file: one that built the instance before checking its
// options would fail on the missing file.
func TestShardRefusesOptionsBeforeBuildingInstance(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "part.ckpt")
	out := filepath.Join(dir, "dep.json")
	var rows []refusal
	for flag, field := range map[string]string{"-s": "S", "-workers": "Workers", "-max-subsets": "MaxSubsets", "-stop-after": "StopAfter"} {
		for _, door := range shardDoors(ckpt) {
			rows = append(rows, refusal{append([]string{flag, "-1"}, door...), "core: " + field + " must be non-negative"})
		}
	}
	checkRefusals(t, []string{"-scenario", filepath.Join(dir, "missing.json"), "-out", out}, rows, ckpt, out)
}

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

// TestParseGateway lists the forms -gateway accepts; the forms it refuses
// are rows of TestRefusesBadFlagsBeforeReadingScenario.
func TestParseGateway(t *testing.T) {
	good := map[string]uavnet.Point{
		"100,200":       {X: 100, Y: 200},
		" 100 , 200 ":   {X: 100, Y: 200},
		"-1.5,2e3":      {X: -1.5, Y: 2000},
		"0,0":           {},
		"1e308,1e308":   {X: 1e308, Y: 1e308},
		"\t7,\t-0.25\t": {X: 7, Y: -0.25},
	}
	for in, want := range good {
		got, err := parseGateway(in)
		if err != nil || got.Pos != want {
			t.Errorf("parseGateway(%q) = %v, %v; want %v", in, got.Pos, err, want)
		}
	}
}

// writeTestScenario generates a small 9-cell scenario and saves it, returning
// the path and the precomputed instance for reference runs. At s = 2 its
// enumeration has C(9,2) = 36 subsets.
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

// referenceDeployment solves the instance in one process and renders it the
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

// mustMatchFile fails unless the file at path holds want.
func mustMatchFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the reference run:\n got: %s\nwant: %s", filepath.Base(path), got, want)
	}
}

// shardRun runs one shard of the s = 2 enumeration of the scenario at scPath
// with the extra flags, writing its partial checkpoint to part.
func shardRun(scPath, shard, part string, extra ...string) error {
	return run(append([]string{"-scenario", scPath, "-s", "2", "-workers", "1", "-map=false",
		"-shard", shard, "-checkpoint", part}, extra...))
}

// TestShardsThenResumeMatchSingleProcess runs three shards, exhaustive and
// sampled, and merges them with a several-file -resume, which takes the
// checkpoints' seed: no -seed is passed to it.
func TestShardsThenResumeMatchSingleProcess(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)
	for _, c := range []struct {
		name          string
		shard, resume []string
		want          uavnet.Options
	}{
		{"exhaustive", nil, nil, uavnet.Options{S: 2}},
		{"sampled", []string{"-max-subsets", "20", "-seed", "5"}, []string{"-max-subsets", "20"}, uavnet.Options{S: 2, MaxSubsets: 20, Seed: 5}},
	} {
		const shards = 3
		parts := make([]string, shards)
		for i := range parts {
			parts[i] = filepath.Join(dir, fmt.Sprintf("%s%d.ckpt", c.name, i))
			if err := shardRun(scPath, fmt.Sprintf("%d/%d", i, shards), parts[i], c.shard...); err != nil {
				t.Fatalf("%s shard %d/%d: %v", c.name, i, shards, err)
			}
		}
		depPath := filepath.Join(dir, c.name+".json")
		if err := run(append([]string{"-scenario", scPath, "-s", "2", "-map=false", "-verify",
			"-resume", strings.Join(parts, ","), "-out", depPath}, c.resume...)); err != nil {
			t.Fatalf("%s several-file -resume: %v", c.name, err)
		}
		mustMatchFile(t, depPath, referenceDeployment(t, in, c.want))
	}
}

func TestShardStopResumeThenMerge(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)
	part0 := filepath.Join(dir, "part0.ckpt")
	part1 := filepath.Join(dir, "part1.ckpt")

	// Shard 0/2 owns [0, 18); -stop-after 3 cuts it there.
	err := shardRun(scPath, "0/2", part0, "-stop-after", "3")
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("cut shard error = %v, want a hint to -resume", err)
	}
	cp, err := uavnet.LoadCheckpoint(part0)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cursor != 3 || cp.Complete() {
		t.Fatalf("cut shard checkpoint: cursor %d, complete %v; want 3, false", cp.Cursor, cp.Complete())
	}

	// Resume shard 0 to the end of its range, run shard 1, merge.
	if err := shardRun(scPath, "0/2", part0, "-resume", part0); err != nil {
		t.Fatalf("resumed shard: %v", err)
	}
	if err := shardRun(scPath, "1/2", part1); err != nil {
		t.Fatalf("shard 1/2: %v", err)
	}
	depPath := filepath.Join(dir, "merged.json")
	if err := run([]string{"-scenario", scPath, "-s", "2", "-map=false",
		"-resume", part0 + "," + part1, "-out", depPath}); err != nil {
		t.Fatalf("several-file -resume: %v", err)
	}
	mustMatchFile(t, depPath, referenceDeployment(t, in, uavnet.Options{S: 2}))
}

// TestResumeFinishesUnfinishedShards merges three shard checkpoints, two of
// them cut, and finishes their holes in the same process; the same merge
// cut again leaves a checkpoint listing what is still unprocessed.
func TestResumeFinishesUnfinishedShards(t *testing.T) {
	dir := t.TempDir()
	scPath, in := writeTestScenario(t, dir)
	want := referenceDeployment(t, in, uavnet.Options{S: 2})

	// Shards of 3 own [0, 12), [12, 24) and [24, 36); cut the first at 3
	// and the last at 27.
	parts := make([]string, 3)
	for i, stop := range []string{"3", "0", "27"} {
		parts[i] = filepath.Join(dir, fmt.Sprintf("part%d.ckpt", i))
		err := shardRun(scPath, fmt.Sprintf("%d/3", i), parts[i], "-stop-after", stop)
		if (err != nil) != (stop != "0") {
			t.Fatalf("shard %d/3 -stop-after %s: err = %v", i, stop, err)
		}
	}
	list := strings.Join(parts, ",")

	cut := filepath.Join(dir, "merged.ckpt")
	err := run([]string{"-scenario", scPath, "-s", "2", "-map=false",
		"-resume", list, "-stop-after", "6", "-checkpoint", cut})
	if err == nil || !strings.Contains(err.Error(), "-resume "+cut) {
		t.Fatalf("cut merge error = %v, want a hint to -resume %s", err, cut)
	}
	cp, err := uavnet.LoadCheckpoint(cut)
	if err != nil {
		t.Fatal(err)
	}
	if got, holes := cp.RemainingSpans(), []uavnet.Span{{Start: 6, End: 12}, {Start: 27, End: 36}}; !slices.Equal(got, holes) {
		t.Errorf("cut merge left %v unprocessed, want %v", got, holes)
	}
	resumed := filepath.Join(dir, "resumed.json")
	if err := run([]string{"-scenario", scPath, "-s", "2", "-map=false",
		"-resume", cut, "-out", resumed}); err != nil {
		t.Fatalf("-resume of the cut merge: %v", err)
	}
	mustMatchFile(t, resumed, want)

	finished := filepath.Join(dir, "finished.json")
	if err := run([]string{"-scenario", scPath, "-s", "2", "-map=false", "-verify",
		"-resume", list, "-out", finished}); err != nil {
		t.Fatalf("several-file -resume: %v", err)
	}
	mustMatchFile(t, finished, want)
}

// TestStopAfterThenResume cuts each solver at a fixed work count: the run
// exits non-zero with a -resume hint, and resuming gives the uninterrupted
// run's bytes.
func TestStopAfterThenResume(t *testing.T) {
	dir := t.TempDir()
	scPath, _ := writeTestScenario(t, dir)
	for _, solver := range [][]string{{"-solver", "enum"}, {"-solver", "portfolio", "-budget", "40"}} {
		base := append([]string{"-scenario", scPath, "-s", "2", "-map=false"}, solver...)
		full := filepath.Join(dir, solver[1]+"-full.json")
		if err := run(append(base, "-out", full)); err != nil {
			t.Fatalf("%v: %v", solver, err)
		}
		ckpt := filepath.Join(dir, solver[1]+".ckpt")
		err := run(append(base, "-stop-after", "10", "-checkpoint", ckpt))
		if err == nil || !strings.Contains(err.Error(), "-resume "+ckpt) {
			t.Fatalf("%v -stop-after 10: err = %v, want a hint to -resume %s", solver, err, ckpt)
		}
		resumed := filepath.Join(dir, solver[1]+"-resumed.json")
		if err := run(append(base, "-resume", ckpt, "-out", resumed)); err != nil {
			t.Fatalf("%v -resume: %v", solver, err)
		}
		want, err := os.ReadFile(full)
		if err != nil {
			t.Fatal(err)
		}
		mustMatchFile(t, resumed, want)
	}
}
