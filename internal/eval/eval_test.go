package eval

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

// quickParams is a small configuration so the harness tests run fast.
func quickParams() uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{
		AreaSide: 2000,
		CellSide: 500,
		N:        120,
		K:        5,
		CMin:     10,
		CMax:     60,
		Seed:     1,
	}
}

func TestParamsDefaults(t *testing.T) {
	p := uavnet.ScenarioSpec{}.WithDefaults()
	if p.AreaSide != 3000 || p.CellSide != 500 || p.Altitude != 300 ||
		p.UAVRange != 600 || p.UserRange != 500 || p.N != 3000 || p.K != 20 ||
		p.CMin != 50 || p.CMax != 300 || p.MinRateBps != 2000 {
		t.Errorf("defaults wrong: %+v", p)
	}
	if p.Distribution != uavnet.FatTailed {
		t.Errorf("default distribution = %v", p.Distribution)
	}
}

// TestBuildInstance checks the instance each sweep point builds through
// uavnet.GenerateInstance.
func TestBuildInstance(t *testing.T) {
	in, err := uavnet.GenerateInstance(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	sc := in.Scenario
	if sc.N() != 120 || sc.K() != 5 || sc.M() != 16 {
		t.Errorf("N,K,M = %d,%d,%d", sc.N(), sc.K(), sc.M())
	}
	for k, u := range sc.UAVs {
		if u.Capacity < 10 || u.Capacity > 60 {
			t.Errorf("UAV %d capacity %d outside [10,60]", k, u.Capacity)
		}
	}
}

func TestBuildInstanceDeterministic(t *testing.T) {
	a, err := uavnet.GenerateInstance(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := uavnet.GenerateInstance(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Scenario.Users {
		if a.Scenario.Users[i].Pos != b.Scenario.Users[i].Pos {
			t.Fatal("users differ across identical builds")
		}
	}
}

func TestSweepHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Base: quickParams(), S: 2, Workers: 2, Context: ctx}
	if _, err := Fig4(cfg, []int{2}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep returned %v, want context.Canceled", err)
	}
}

func TestFig4Quick(t *testing.T) {
	cfg := Config{Base: quickParams(), S: 2, Workers: 2}
	series, err := Fig4(cfg, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 {
		t.Fatalf("got %d points", len(series.Points))
	}
	// Served users must not decrease with more UAVs for approAlg.
	if series.Points[1].Served["approAlg"] < series.Points[0].Served["approAlg"] {
		t.Errorf("approAlg served fewer users with more UAVs: %v -> %v",
			series.Points[0].Served["approAlg"], series.Points[1].Served["approAlg"])
	}
	for _, p := range series.Points {
		for _, alg := range series.Algorithms {
			if _, ok := p.Served[alg]; !ok {
				t.Errorf("missing served value for %s", alg)
			}
			if p.Elapsed[alg] <= 0 {
				t.Errorf("non-positive elapsed for %s", alg)
			}
		}
	}
}

func TestFig5Quick(t *testing.T) {
	cfg := Config{Base: quickParams(), S: 2, Workers: 2}
	series, err := Fig5(cfg, []int{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 {
		t.Fatalf("got %d points", len(series.Points))
	}
	if series.Points[0].X != 50 || series.Points[1].X != 100 {
		t.Errorf("x values %v", series.Points)
	}
}

func TestFig6Quick(t *testing.T) {
	cfg := Config{Base: quickParams(), Workers: 2}
	series, err := Fig6(cfg, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 {
		t.Fatalf("got %d points", len(series.Points))
	}
	// approAlg runtime should grow with s.
	if series.Points[1].Elapsed["approAlg"] < series.Points[0].Elapsed["approAlg"] {
		t.Logf("warning: s=2 not slower than s=1 (%v vs %v) — acceptable on tiny instances",
			series.Points[1].Elapsed["approAlg"], series.Points[0].Elapsed["approAlg"])
	}
}

func TestSeedAveraging(t *testing.T) {
	cfg := Config{Base: quickParams(), S: 2, Workers: 2, Seeds: []int64{1, 2, 3}}
	series, err := Fig4(cfg, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 1 {
		t.Fatal("want one point")
	}
	// The average over three different seeds is rarely an integer; mostly we
	// check it's within the possible range.
	v := series.Points[0].Served["approAlg"]
	if v <= 0 || v > 120 {
		t.Errorf("averaged served = %g out of range", v)
	}
}

func TestProgressCallback(t *testing.T) {
	var lines []string
	cfg := Config{
		Base: quickParams(), S: 2, Workers: 2,
		Progress: func(format string, args ...any) {
			lines = append(lines, strings.TrimSpace(format))
		},
	}
	if _, err := Fig4(cfg, []int{2}); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 5 { // five algorithms, one seed, one point
		t.Errorf("got %d progress lines, want 5", len(lines))
	}
}

func TestFormatServedAndElapsed(t *testing.T) {
	s := &Series{
		Title:      "demo",
		XLabel:     "K",
		Algorithms: []string{"approAlg", "MCS"},
		Points: []Point{
			{
				X:       2,
				Served:  map[string]float64{"approAlg": 100, "MCS": 80},
				Elapsed: map[string]time.Duration{"approAlg": 120 * time.Millisecond, "MCS": 5 * time.Millisecond},
			},
		},
	}
	out := s.FormatServed()
	for _, want := range []string{"demo", "K", "approAlg", "MCS", "100", "80"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatServed missing %q:\n%s", want, out)
		}
	}
	tout := s.FormatElapsed()
	if !strings.Contains(tout, "120ms") {
		t.Errorf("FormatElapsed missing 120ms:\n%s", tout)
	}
}

func TestCSV(t *testing.T) {
	s := &Series{
		XLabel:     "n",
		Algorithms: []string{"approAlg"},
		Points: []Point{
			{X: 10, Served: map[string]float64{"approAlg": 7}, Elapsed: map[string]time.Duration{"approAlg": time.Millisecond}},
		},
	}
	csv := s.CSV()
	if !strings.HasPrefix(csv, "n,approAlg_served,approAlg_ms\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "10,7.0,1.0") {
		t.Errorf("CSV row wrong:\n%s", csv)
	}
}

func TestImprovement(t *testing.T) {
	s := &Series{
		Algorithms: []string{"approAlg", "MCS", "GreedyAssign"},
		Points: []Point{
			{Served: map[string]float64{"approAlg": 122, "MCS": 100, "GreedyAssign": 90}},
		},
	}
	got, err := s.Improvement(0)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.2199 || got > 0.2201 {
		t.Errorf("Improvement = %g, want 0.22", got)
	}
	if _, err := s.Improvement(5); err == nil {
		t.Error("out-of-range point should fail")
	}
	empty := &Series{Points: []Point{{Served: map[string]float64{}}}}
	if _, err := empty.Improvement(0); err == nil {
		t.Error("missing approAlg should fail")
	}
}

func TestBuildInstanceErrors(t *testing.T) {
	p := quickParams()
	p.N = -1
	if _, err := uavnet.GenerateInstance(p); err == nil {
		t.Error("negative n should fail")
	}
	p = quickParams()
	p.CellSide = 777 // not dividing the area
	if _, err := uavnet.GenerateInstance(p); err == nil {
		t.Error("non-divisible cell side should fail")
	}
}

func TestSeedAveragingReportsStd(t *testing.T) {
	cfg := Config{Base: quickParams(), S: 2, Workers: 2, Seeds: []int64{1, 2, 3}}
	series, err := Fig4(cfg, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	pt := series.Points[0]
	if _, ok := pt.ServedStd["approAlg"]; !ok {
		t.Fatal("multi-seed run should carry standard deviations")
	}
	// Any algorithm's std must be non-negative and bounded by the range of
	// possible served counts.
	for alg, std := range pt.ServedStd {
		if std < 0 || std > 120 {
			t.Errorf("%s std = %g out of range", alg, std)
		}
	}
	// The formatted table shows mean±std when std > 0.
	out := series.FormatServed()
	hasPlusMinus := strings.Contains(out, "±")
	anyPositive := false
	for _, std := range pt.ServedStd {
		if std > 0 {
			anyPositive = true
		}
	}
	if anyPositive && !hasPlusMinus {
		t.Errorf("expected ± in formatted output:\n%s", out)
	}
}

func TestSingleSeedHasNoStd(t *testing.T) {
	cfg := Config{Base: quickParams(), S: 2, Workers: 2}
	series, err := Fig4(cfg, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points[0].ServedStd) != 0 {
		t.Errorf("single-seed run should carry no std: %v", series.Points[0].ServedStd)
	}
	if strings.Contains(series.FormatServed(), "±") {
		t.Error("single-seed table should not show ±")
	}
}
