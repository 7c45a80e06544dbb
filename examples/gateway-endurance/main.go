// Gateway and endurance planning: the operational wrap-around of Fig. 1.
// An emergency communication vehicle parks at the area edge; the deployed
// network must reach it (gateway constraint), keep serving users, and —
// since batteries drain — sustain the mission with battery rotations.
//
// The example contrasts a gateway-oblivious deployment (patched afterwards
// with a relay chain when possible) against planning the gateway into the
// search, then sizes the relief-sortie schedule for a 72-hour mission.
//
// Run with:
//
//	go run ./examples/gateway-endurance
package main

import (
	"context"
	"fmt"
	"log"

	uavnet "github.com/uav-coverage/uavnet"
)

func main() {
	ctx := context.Background()
	in, err := uavnet.GenerateInstance(uavnet.ScenarioSpec{
		AreaSide: 3000,
		CellSide: 500,
		N:        600,
		K:        10,
		CMin:     40,
		CMax:     200,
		Seed:     12,
	})
	if err != nil {
		log.Fatal(err)
	}
	sc := in.Scenario
	// The vehicle parks at the south-west corner of the area.
	gw := uavnet.Gateway{Pos: uavnet.Point{X: 100, Y: 100}}
	opts := uavnet.Options{S: 2}

	fmt.Printf("scenario: %d users, %d UAVs; gateway vehicle at (%.0f, %.0f)\n\n",
		sc.N(), sc.K(), gw.Pos.X, gw.Pos.Y)

	// Gateway-oblivious deployment.
	free, err := uavnet.DeployInstanceContext(ctx, in, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway-oblivious approAlg:  %3d served, gateway reachable: %v\n",
		free.Served, uavnet.GatewayReachable(in, free, gw))

	// Planned-in gateway: its cells become required anchors.
	pinned, err := uavnet.DeployToGatewayContext(ctx, in, gw, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway-planned approAlg:    %3d served, gateway reachable: %v\n",
		pinned.Served, uavnet.GatewayReachable(in, pinned, gw))
	fmt.Printf("coverage cost of the gateway constraint: %d users\n\n", free.Served-pinned.Served)

	// Endurance: a mixed fleet of M600s (big capacities) and M300s.
	fleet := make([]uavnet.EnergyProfile, sc.K())
	for k := range fleet {
		if sc.UAVs[k].Capacity >= 120 {
			fleet[k] = uavnet.MatriceM600
		} else {
			fleet[k] = uavnet.MatriceM300
		}
	}
	endurance, err := uavnet.NetworkEndurance(fleet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network endurance: %.1f min (limited by UAV %d)\n",
		endurance.NetworkMin, endurance.WeakestUAV)

	// The paper's 72 golden hours: how many relief sorties per slot?
	const missionMin = 72 * 60
	sorties, err := uavnet.RotationPlan(endurance.NetworkMin, 6, missionMin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("72-hour mission with 6-minute swaps: %d relief sorties per UAV slot\n", sorties)
	fmt.Printf("fleet-wide battery swaps: %d\n", sorties*sc.K())
}
