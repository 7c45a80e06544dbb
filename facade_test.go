package uavnet_test

import (
	"context"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

func TestEnergyFacade(t *testing.T) {
	me, err := uavnet.NetworkEndurance([]uavnet.EnergyProfile{uavnet.MatriceM600, uavnet.MatriceM300})
	if err != nil {
		t.Fatal(err)
	}
	if me.NetworkMin <= 0 {
		t.Errorf("network endurance %g, want positive", me.NetworkMin)
	}
	sorties, err := uavnet.RotationPlan(me.NetworkMin, 5, 72*60)
	if err != nil {
		t.Fatal(err)
	}
	if sorties <= 0 {
		t.Errorf("a 72 h mission on %g-minute batteries needs relief sorties, got %d", me.NetworkMin, sorties)
	}
}

func TestGatewayFacade(t *testing.T) {
	in, err := uavnet.GenerateInstance(uavnet.ScenarioSpec{
		AreaSide: 2000, CellSide: 500, N: 60, K: 5, CMin: 10, CMax: 40, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gw := uavnet.Gateway{Pos: uavnet.Point{X: 0, Y: 0}}
	out, err := uavnet.ConnectToGateway(in, dep, gw)
	if err != nil {
		// A full fleet may leave no grounded relays; that is a legitimate
		// failure mode, but the error must say so.
		t.Logf("gateway connection impossible here: %v", err)
		return
	}
	if !uavnet.GatewayReachable(in, out, gw) {
		t.Error("gateway not reachable after ConnectToGateway")
	}
	if !uavnet.Connected(in, out) {
		t.Error("network disconnected after gateway chain")
	}
}

func TestRefineAssignmentFacade(t *testing.T) {
	in, err := uavnet.GenerateInstance(uavnet.ScenarioSpec{
		AreaSide: 2000, CellSide: 500, N: 120, K: 4, CMin: 20, CMax: 60, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	before, err := uavnet.TotalPathlossMilliDB(in, dep)
	if err != nil {
		t.Fatal(err)
	}
	refined, after, err := uavnet.RefineAssignment(in, dep)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Served != dep.Served {
		t.Errorf("refinement changed coverage: %d -> %d", dep.Served, refined.Served)
	}
	if after > before {
		t.Errorf("refinement raised pathloss: %d -> %d milli-dB", before, after)
	}
}

func TestDeployToGateway(t *testing.T) {
	in, err := uavnet.GenerateInstance(uavnet.ScenarioSpec{
		AreaSide: 2000, CellSide: 500, N: 80, K: 6, CMin: 10, CMax: 40, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := uavnet.Gateway{Pos: uavnet.Point{X: 0, Y: 0}}
	dep, err := uavnet.DeployToGatewayContext(context.Background(), in, gw, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !uavnet.GatewayReachable(in, dep, gw) {
		t.Error("gateway not reachable although planned in")
	}
	if !uavnet.Connected(in, dep) {
		t.Error("network disconnected")
	}
	// A gateway with no nearby candidate cell must fail.
	far := uavnet.Gateway{Pos: uavnet.Point{X: 99999, Y: 99999}}
	if _, err := uavnet.DeployToGatewayContext(context.Background(), in, far, uavnet.Options{S: 2, Workers: 2}); err == nil {
		t.Error("unreachable gateway should fail")
	}
}

func TestDeployToGatewayCostsCoverageAtMost(t *testing.T) {
	in, err := uavnet.GenerateInstance(uavnet.ScenarioSpec{
		AreaSide: 2000, CellSide: 500, N: 100, K: 4, CMin: 20, CMax: 50, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	free, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	gw := uavnet.Gateway{Pos: uavnet.Point{X: 0, Y: 0}}
	pinned, err := uavnet.DeployToGatewayContext(context.Background(), in, gw, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The constrained search explores a subset of the anchor space, so it
	// can never beat the unconstrained deployment.
	if pinned.Served > free.Served {
		t.Errorf("gateway-pinned served %d > free %d", pinned.Served, free.Served)
	}
}

func TestAnalyzeInterferenceFacade(t *testing.T) {
	in, err := uavnet.GenerateInstance(uavnet.ScenarioSpec{
		AreaSide: 2000, CellSide: 500, N: 100, K: 4, CMin: 20, CMax: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := uavnet.AnalyzeInterference(in, dep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ServedUsers != dep.Served {
		t.Errorf("analyzed %d links, deployment serves %d", rep.ServedUsers, dep.Served)
	}
	if dep.DeployedCount() > 1 && rep.MeanSINRdB >= rep.MeanSNRdB {
		t.Errorf("multiple UAVs should produce interference: SINR %g >= SNR %g",
			rep.MeanSINRdB, rep.MeanSNRdB)
	}
}
