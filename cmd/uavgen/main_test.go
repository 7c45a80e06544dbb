package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/uav-coverage/uavnet/internal/workload"
)

func TestParseDistribution(t *testing.T) {
	tests := []struct {
		in      string
		want    workload.Distribution
		wantErr bool
	}{
		{"fat-tailed", workload.FatTailed, false},
		{"uniform", workload.Uniform, false},
		{"hotspot", workload.SingleHotspot, false},
		{"nope", 0, true},
		{"", 0, true},
	}
	for _, tc := range tests {
		got, err := parseDistribution(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseDistribution(%q) error = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseDistribution(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRefusesBadAggCellBeforeScenario gives -agg-cell sides that demand
// aggregation refuses: with -fingerprint on a file that does not exist, the
// refusal must come before the read, and when generating, before the
// scenario file is written.
func TestRefusesBadAggCellBeforeScenario(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "scenario.json")
	missing := filepath.Join(dir, "missing.json")
	for _, side := range []string{"-250", "NaN", "Inf", "-Inf"} {
		for _, args := range [][]string{
			{"-fingerprint", missing, "-agg-cell", side},
			{"-out", out, "-n", "20", "-k", "2", "-agg-cell", side},
		} {
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), "demand-cell side") {
				t.Errorf("%v: err = %v, want the demand-cell side rule", args, err)
			}
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run wrote %s (stat: %v)", out, err)
	}
}

// TestRefusesBadSnapBeforeWriting gives -snap sides the snap grid refuses:
// no scenario file may be written, where a side that was skipped would have
// written the unsnapped scenario.
func TestRefusesBadSnapBeforeWriting(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scenario.json")
	for _, side := range []string{"-250", "NaN", "Inf", "-Inf", "7"} {
		err := run([]string{"-out", out, "-n", "100", "-k", "4", "-snap", side})
		if err == nil || !strings.Contains(err.Error(), "snap grid") {
			t.Errorf("-snap %s: err = %v, want the snap grid rule", side, err)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a refused run wrote %s (stat: %v)", out, err)
	}
}
