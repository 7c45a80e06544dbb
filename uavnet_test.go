package uavnet_test

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

func quickSpec() uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{
		AreaSide: 2000,
		CellSide: 500,
		N:        100,
		K:        5,
		CMin:     10,
		CMax:     50,
		Seed:     7,
	}
}

func TestGenerateScenarioDefaults(t *testing.T) {
	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{N: 50, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.N() != 50 || sc.K() != 3 {
		t.Errorf("N,K = %d,%d", sc.N(), sc.K())
	}
	if sc.Grid.Length != 3000 || sc.Grid.Side != 500 || sc.Grid.Altitude != 300 {
		t.Errorf("grid defaults wrong: %+v", sc.Grid)
	}
	if sc.UAVRange != 600 {
		t.Errorf("UAVRange = %g, want 600", sc.UAVRange)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("generated scenario invalid: %v", err)
	}
}

func TestDeployEndToEnd(t *testing.T) {
	sc, err := uavnet.GenerateScenario(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployContext(context.Background(), sc, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Served <= 0 {
		t.Errorf("Served = %d, want positive", dep.Served)
	}
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !uavnet.Connected(in, dep) {
		t.Error("deployment not connected")
	}
}

func TestDeployWithAllAlgorithms(t *testing.T) {
	in, err := uavnet.GenerateInstance(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	apro := -1
	for _, name := range uavnet.AlgorithmNames() {
		dep, err := uavnet.DeployWithContext(context.Background(), name, in, uavnet.Options{S: 2, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !uavnet.Connected(in, dep) {
			t.Errorf("%s produced a disconnected network", name)
		}
		if dep.Algorithm == "" {
			t.Errorf("%s left Algorithm empty", name)
		}
		if name == "approAlg" {
			apro = dep.Served
		} else if dep.Served > apro {
			t.Errorf("%s served %d > approAlg %d", name, dep.Served, apro)
		}
	}
}

func TestDeployWithUnknown(t *testing.T) {
	in, err := uavnet.GenerateInstance(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, err = uavnet.DeployWithContext(context.Background(), "magic", in, uavnet.Options{})
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("unknown algorithm: got %v, want an error naming it", err)
	}
}

func TestEvaluatePlacement(t *testing.T) {
	in, err := uavnet.GenerateInstance(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]int, in.Scenario.K())
	for i := range locs {
		locs[i] = -1
	}
	locs[0] = 0
	dep, err := uavnet.EvaluatePlacement(in, locs)
	if err != nil {
		t.Fatal(err)
	}
	if dep.DeployedCount() != 1 {
		t.Errorf("DeployedCount = %d, want 1", dep.DeployedCount())
	}
	// Duplicate locations must be rejected.
	locs[1] = 0
	if _, err := uavnet.EvaluatePlacement(in, locs); err == nil {
		t.Error("duplicate cells should fail")
	}
}

func TestDeployOptimalTiny(t *testing.T) {
	spec := quickSpec()
	spec.AreaSide = 1500 // 9 cells
	spec.K = 3
	spec.N = 20
	in, err := uavnet.GenerateInstance(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := uavnet.DeployOptimal(in)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if apx.Served > opt.Served {
		t.Errorf("approx %d beats optimum %d", apx.Served, opt.Served)
	}
}

func TestPlanBudgetAndRatio(t *testing.T) {
	b, err := uavnet.PlanBudget(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.LMax < 3 || b.G > 20 {
		t.Errorf("budget %+v out of bounds", b)
	}
	if r := uavnet.ApproxRatio(20, 3); r <= 0 || r > 1 {
		t.Errorf("ratio %g out of range", r)
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc, err := uavnet.GenerateScenario(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	data, err := uavnet.MarshalScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := uavnet.UnmarshalScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != sc.N() || back.K() != sc.K() || back.UAVRange != sc.UAVRange {
		t.Error("round trip lost data")
	}
	for i := range sc.Users {
		if back.Users[i] != sc.Users[i] {
			t.Fatalf("user %d differs", i)
		}
	}
	for k := range sc.UAVs {
		if back.UAVs[k] != sc.UAVs[k] {
			t.Fatalf("UAV %d differs", k)
		}
	}
}

func TestScenarioFileRoundTrip(t *testing.T) {
	sc, err := uavnet.GenerateScenario(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := uavnet.SaveScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	back, err := uavnet.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != sc.N() {
		t.Error("file round trip lost users")
	}
}

func TestUnmarshalScenarioErrors(t *testing.T) {
	if _, err := uavnet.UnmarshalScenario([]byte("{")); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := uavnet.UnmarshalScenario([]byte(`{"version": 99, "scenario": null}`)); err == nil {
		t.Error("wrong version should fail")
	}
	if _, err := uavnet.UnmarshalScenario([]byte(`{"version": 1}`)); err == nil {
		t.Error("missing scenario should fail")
	}
	if _, err := uavnet.UnmarshalScenario([]byte(`{"version": 1, "scenario": {}}`)); err == nil {
		t.Error("invalid scenario should fail")
	}
}

func TestLoadScenarioMissingFile(t *testing.T) {
	if _, err := uavnet.LoadScenario(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestMarshalInvalidScenario(t *testing.T) {
	if _, err := uavnet.MarshalScenario(&uavnet.Scenario{}); err == nil {
		t.Error("invalid scenario should not marshal")
	}
}

func TestQueueFacade(t *testing.T) {
	cfg := uavnet.QueueConfig{
		ArrivalRatePerUser: 0.1,
		ServiceRate:        20,
		Duration:           300,
		WarmUp:             30,
		Seed:               1,
	}
	stats, err := uavnet.SimulateQueues([]int{100}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats[0].Completed == 0 {
		t.Error("no completions")
	}
	if c := uavnet.StableCapacity(cfg, 0.8); c != 160 {
		t.Errorf("StableCapacity = %d, want 160", c)
	}
	if v := uavnet.TheoreticalMeanSojourn(100, cfg); v <= 0 {
		t.Errorf("theory %g", v)
	}
}

func TestLoadsOf(t *testing.T) {
	in, err := uavnet.GenerateInstance(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	loads := uavnet.LoadsOf(dep)
	if len(loads) != in.Scenario.K() {
		t.Fatalf("loads %v, want one per UAV", loads)
	}
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != dep.Served {
		t.Errorf("loads sum to %d, served %d", total, dep.Served)
	}
	// Mutating the copy must not touch the deployment.
	if len(loads) > 0 {
		loads[0] = -99
		if dep.Assignment.PerStation[0] == -99 {
			t.Error("LoadsOf aliases internal state")
		}
	}
}

func TestMobilityFacade(t *testing.T) {
	sc, err := uavnet.GenerateScenario(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	model, err := uavnet.NewRandomWaypoint(sc.Grid, sc.N(), 1, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	positions := make([]uavnet.Point, sc.N())
	for i, u := range sc.Users {
		positions[i] = u.Pos
	}
	before := append([]uavnet.Point(nil), positions...)
	if err := model.Step(positions, 30); err != nil {
		t.Fatal(err)
	}
	drift, err := uavnet.MeanDisplacement(before, positions)
	if err != nil {
		t.Fatal(err)
	}
	if drift <= 0 {
		t.Errorf("drift = %g, want positive", drift)
	}
}

func TestAlgorithmNamesOrder(t *testing.T) {
	names := uavnet.AlgorithmNames()
	if names[0] != "approAlg" {
		t.Errorf("first algorithm = %s", names[0])
	}
	joined := strings.Join(names, ",")
	if joined != "approAlg,MCS,MotionCtrl,GreedyAssign,maxThroughput" {
		t.Errorf("names = %s", joined)
	}
}

func TestEnvironmentsExported(t *testing.T) {
	for _, env := range []uavnet.Environment{uavnet.Suburban, uavnet.Urban, uavnet.DenseUrban, uavnet.Highrise} {
		if env.Name == "" || env.B <= 0 {
			t.Errorf("bad environment %+v", env)
		}
	}
	if uavnet.DefaultChannel().Env.Name != "urban" {
		t.Error("default channel should be urban")
	}
}
