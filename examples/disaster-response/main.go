// Disaster response: the scenario of the paper's Fig. 1 — a mixed fleet of
// DJI Matrice 600 RTK and Matrice 300 RTK UAVs provides emergency LTE
// coverage over a flooded town. The M600s carry heavier, more capable base
// stations (larger service capacity, stronger transmitter); the M300s are
// lighter and mostly useful near the crowd edges or as relays.
//
// The example compares the heterogeneity-aware approAlg against every
// capacity-oblivious baseline on the same scenario, then uses the queueing
// simulator to show what would happen to user latency if one overloaded
// base station ignored its service capacity.
//
// Run with:
//
//	go run ./examples/disaster-response
package main

import (
	"context"
	"fmt"
	"log"

	uavnet "github.com/uav-coverage/uavnet"
)

func main() {
	ctx := context.Background()
	sc := buildScenario()
	fmt.Printf("flooded town: %d trapped users, fleet of %d UAVs over a %d-cell grid\n\n",
		sc.N(), sc.K(), sc.M())

	in, err := uavnet.NewInstance(sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("algorithm comparison (served users):")
	var approDep *uavnet.Deployment
	for _, name := range uavnet.AlgorithmNames() {
		dep, err := uavnet.DeployWithContext(ctx, name, in, uavnet.Options{S: 2})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("  %-14s %4d / %d (connected: %v)\n",
			name, dep.Served, sc.N(), uavnet.Connected(in, dep))
		if name == "approAlg" {
			approDep = dep
		}
	}

	fmt.Println("\napproAlg fleet usage:")
	for k, loc := range approDep.LocationOf {
		u := sc.UAVs[k]
		state := "grounded"
		if loc >= 0 {
			col, row := sc.Grid.CellAt(loc)
			state = fmt.Sprintf("cell (%d,%d) serving %3d users", col, row, approDep.Assignment.PerStation[k])
		}
		fmt.Printf("  %-8s capacity %3d  %s\n", u.Name, u.Capacity, state)
	}

	// Why capacities matter: simulate the onboard base-station queues at the
	// assigned loads, then overload one station 3x beyond its capacity.
	fmt.Println("\nqueueing check (per assigned load):")
	cfg := uavnet.QueueConfig{
		ArrivalRatePerUser: 0.05, // each user: one request every 20 s
		ServiceRate:        16,   // onboard server: 16 req/s
		Duration:           2000,
		WarmUp:             200,
		Seed:               1,
	}
	loads := uavnet.LoadsOf(approDep)
	stats, err := uavnet.SimulateQueues(loads, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for k, s := range stats {
		if s.Users == 0 {
			continue
		}
		fmt.Printf("  %-8s %3d users  mean delay %7.1f ms  p99 %7.1f ms  (util %.0f%%)\n",
			sc.UAVs[k].Name, s.Users, 1000*s.MeanSojournSec, 1000*s.P99SojournSec, 100*s.Utilization)
	}

	overload := uavnet.StableCapacity(cfg, 1.0) * 3
	over, err := uavnet.SimulateQueues([]int{overload}, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nignoring the capacity limit (%d users on one UAV): mean delay %.1f s — "+
		"this is why each UAV enforces C_k\n", overload, over[0].MeanSojournSec)
}

// buildScenario hand-crafts a Fig. 1-like scenario: two dense shelters, a
// scattered remainder, and a mixed M600/M300 fleet.
func buildScenario() *uavnet.Scenario {
	sc := &uavnet.Scenario{
		Grid:     uavnet.Grid{Length: 2500, Width: 2500, Side: 500, Altitude: 300},
		UAVRange: 700,
		Channel:  uavnet.DefaultChannel(),
	}

	// Shelter A: 180 users around (600, 600). Shelter B: 120 users around
	// (1900, 1800). 100 more users scattered along the evacuation road.
	addCluster := func(cx, cy float64, count int, spread float64) {
		for i := 0; i < count; i++ {
			dx := spread * float64(i%13-6) / 6
			dy := spread * float64(i%7-3) / 3
			sc.Users = append(sc.Users, uavnet.User{
				Pos:        sc.Grid.Clamp(uavnet.Point{X: cx + dx, Y: cy + dy}),
				MinRateBps: 2000,
			})
		}
	}
	addCluster(600, 600, 180, 220)
	addCluster(1900, 1800, 120, 200)
	for i := 0; i < 100; i++ {
		t := float64(i) / 99
		sc.Users = append(sc.Users, uavnet.User{
			Pos:        uavnet.Point{X: 400 + t*1800, Y: 300 + t*2000},
			MinRateBps: 2000,
		})
	}

	m600 := uavnet.Transmitter{PowerDBm: 36, AntennaGainDBi: 5}
	m300 := uavnet.Transmitter{PowerDBm: 30, AntennaGainDBi: 3}
	sc.UAVs = []uavnet.UAV{
		{Name: "M600-1", Capacity: 200, Tx: m600, UserRange: 550},
		{Name: "M600-2", Capacity: 160, Tx: m600, UserRange: 550},
		{Name: "M300-1", Capacity: 60, Tx: m300, UserRange: 450},
		{Name: "M300-2", Capacity: 60, Tx: m300, UserRange: 450},
		{Name: "M300-3", Capacity: 40, Tx: m300, UserRange: 450},
	}
	return sc
}
