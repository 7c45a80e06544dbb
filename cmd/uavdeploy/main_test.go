package main

import (
	"path/filepath"
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

// TestRefusesBadAggCellBeforeReadingScenario gives -agg-cell sides that
// demand aggregation refuses and a scenario path that names no file: a run
// that read the scenario before checking the side would fail on the missing
// file, and one that ignored the side would solve per user.
func TestRefusesBadAggCellBeforeReadingScenario(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, side := range []string{"-250", "NaN", "Inf", "-Inf"} {
		err := run([]string{"-scenario", missing, "-agg-cell", side})
		if err == nil || !strings.Contains(err.Error(), "demand-cell side") {
			t.Errorf("-agg-cell %s: err = %v, want the demand-cell side rule", side, err)
		}
	}
}

// TestRefusesBadFlagsBeforeReadingScenario gives each flag value uavdeploy
// refuses and a scenario path that names no file: a run that read the
// scenario before checking the flags would fail on the missing file instead,
// and one that ignored a flag would solve.
func TestRefusesBadFlagsBeforeReadingScenario(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-alg", "bogus"}, "unknown -alg"},
		{[]string{"-gateway", "1;2"}, "bad -gateway"},
		{[]string{"-agg-cell", "250", "-alg", "MCS"}, "supports only approAlg"},
		{[]string{"-agg-cell", "250", "-alg", "all"}, "supports only approAlg"},
		{[]string{"-agg-cell", "250", "-refine"}, "incompatible"},
		{[]string{"-timeout", "-5s"}, "must be non-negative"},
		{[]string{"-progress", "-1s"}, "must be non-negative"},
		{[]string{"stray"}, "unexpected arguments"},
	} {
		err := run(append([]string{"-scenario", missing}, c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.flags, err, c.want)
		}
	}
}
