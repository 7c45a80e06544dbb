// Quickstart: generate a disaster-area scenario, deploy a heterogeneous UAV
// fleet with the paper's approximation algorithm, and inspect the result.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	uavnet "github.com/uav-coverage/uavnet"
)

func main() {
	ctx := context.Background()
	// A 2x2 km disaster area with 400 fat-tailed users and 6 UAVs whose
	// service capacities range from 20 to 120 users.
	spec := uavnet.ScenarioSpec{
		AreaSide: 2000,
		CellSide: 500,
		N:        400,
		K:        6,
		CMin:     20,
		CMax:     120,
		Seed:     42,
	}
	sc, err := uavnet.GenerateScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d users, %d UAVs, %d candidate hovering cells\n",
		sc.N(), sc.K(), sc.M())

	// Deploy with approAlg (s = 2 keeps the demo fast; s = 3 is the paper's
	// recommended quality setting).
	dep, err := uavnet.DeployContext(ctx, sc, uavnet.Options{S: 2})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("served %d of %d users with %d UAVs deployed\n",
		dep.Served, sc.N(), dep.DeployedCount())
	for k, loc := range dep.LocationOf {
		if loc < 0 {
			fmt.Printf("  UAV %d (capacity %3d): grounded\n", k, sc.UAVs[k].Capacity)
			continue
		}
		col, row := sc.Grid.CellAt(loc)
		fmt.Printf("  UAV %d (capacity %3d): cell (%d,%d), serving %d users\n",
			k, sc.UAVs[k].Capacity, col, row, dep.Assignment.PerStation[k])
	}

	// The deployment is guaranteed connected; verify and report the
	// theoretical approximation ratio for this fleet size.
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network connected: %v\n", uavnet.Connected(in, dep))
	fmt.Printf("worst-case guarantee: at least %.1f%% of the optimum (Theorem 1)\n",
		100*uavnet.ApproxRatio(sc.K(), 2))
}
