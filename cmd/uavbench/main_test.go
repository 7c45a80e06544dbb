package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFigureSettingsScales(t *testing.T) {
	paperBase, ks, ns, ss := figureSettings("paper", 4)
	if paperBase.WithDefaults().N != 3000 || paperBase.WithDefaults().K != 20 {
		t.Errorf("paper base should default to Section IV-A values")
	}
	if len(ks) != 10 || ks[0] != 2 || ks[len(ks)-1] != 20 {
		t.Errorf("paper K sweep = %v", ks)
	}
	if len(ns) != 5 || ns[0] != 1000 || ns[len(ns)-1] != 3000 {
		t.Errorf("paper n sweep = %v", ns)
	}
	if len(ss) != 4 || ss[0] != 1 || ss[3] != 4 {
		t.Errorf("s sweep = %v", ss)
	}

	quickBase, qks, qns, qss := figureSettings("quick", 2)
	if quickBase.N == 0 || quickBase.N >= 3000 {
		t.Errorf("quick scale should shrink n, got %d", quickBase.N)
	}
	if len(qks) == 0 || len(qns) == 0 {
		t.Error("quick sweeps empty")
	}
	if len(qss) != 2 {
		t.Errorf("smax=2 should yield two s values, got %v", qss)
	}
}

// TestRefusesBadFlagsBeforeRunning gives each flag value uavbench refuses
// with a -csv path that names no file yet: a campaign that started before
// checking the flags would run (at paper scale, for minutes) and write it.
func TestRefusesBadFlagsBeforeRunning(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-fig", "7"}, "unknown -fig"},
		{[]string{"-scale", "huge"}, "unknown -scale"},
		{[]string{"-seeds", "0"}, "must be at least 1"},
		{[]string{"-smax", "0"}, "must be at least 1"},
		{[]string{"-timeout", "-1s"}, "must be non-negative"},
	} {
		err := run(append([]string{"-csv", csv, "-q"}, c.flags...))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want %q", c.flags, err, c.want)
		}
	}
	if _, err := os.Stat(csv); !os.IsNotExist(err) {
		t.Errorf("a refused campaign wrote %s (stat: %v)", csv, err)
	}
}
