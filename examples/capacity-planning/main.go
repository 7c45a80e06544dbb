// Capacity planning: which fleet should an emergency agency buy?
//
// The example sweeps fleet compositions — from "many small UAVs" to "few
// large UAVs" at the same total service capacity — and reports how many
// users each fleet serves on the same fat-tailed scenario under approAlg.
// It also quantifies the value of heterogeneity-awareness by re-running the
// best fleet with the strongest capacity-oblivious baseline.
//
// Run with:
//
//	go run ./examples/capacity-planning
package main

import (
	"context"
	"fmt"
	"log"

	uavnet "github.com/uav-coverage/uavnet"
)

// fleet describes one purchase option: count x capacity per UAV.
type fleet struct {
	label      string
	capacities []int
}

func main() {
	ctx := context.Background()
	// One shared scenario: 800 users, strongly clustered.
	spec := uavnet.ScenarioSpec{
		AreaSide:     3000,
		CellSide:     500,
		N:            800,
		K:            1, // placeholder; the fleet is replaced below
		Seed:         7,
		Distribution: uavnet.FatTailed,
	}
	base, err := uavnet.GenerateScenario(spec)
	if err != nil {
		log.Fatal(err)
	}

	// All options have total capacity 720.
	options := []fleet{
		{"12 x 60 (swarm of small UAVs)", repeat(60, 12)},
		{"8 x 90 (medium fleet)", repeat(90, 8)},
		{"4 x 180 (few large UAVs)", repeat(180, 4)},
		{"2x240 + 4x60 (mixed fleet)", append(repeat(240, 2), repeat(60, 4)...)},
	}

	fmt.Printf("scenario: %d users over %.0fx%.0f m; every fleet totals 720 capacity\n\n",
		base.N(), base.Grid.Length, base.Grid.Width)
	fmt.Println("fleet option                          served (approAlg)")

	bestServed, bestIdx := -1, -1
	for i, f := range options {
		sc := withFleet(base, f.capacities)
		dep, err := uavnet.DeployContext(ctx, sc, uavnet.Options{S: 2})
		if err != nil {
			log.Fatalf("%s: %v", f.label, err)
		}
		marker := ""
		if dep.Served > bestServed {
			bestServed, bestIdx = dep.Served, i
			marker = "  <- best so far"
		}
		fmt.Printf("  %-35s %4d / %d%s\n", f.label, dep.Served, sc.N(), marker)
	}

	// How much of the best fleet's value comes from capacity-aware
	// placement? Re-run it with every baseline.
	best := options[bestIdx]
	fmt.Printf("\nbest fleet (%s) under capacity-oblivious algorithms:\n", best.label)
	sc := withFleet(base, best.capacities)
	in, err := uavnet.NewInstance(sc)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range uavnet.AlgorithmNames()[1:] {
		dep, err := uavnet.DeployWithContext(ctx, name, in, uavnet.Options{})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("  %-14s %4d / %d\n", name, dep.Served, sc.N())
	}
	fmt.Printf("  %-14s %4d / %d\n", "approAlg", bestServed, sc.N())
}

func repeat(capacity, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = capacity
	}
	return out
}

// withFleet returns a copy of the scenario with the given fleet, all UAVs
// sharing the paper's default radio.
func withFleet(base *uavnet.Scenario, capacities []int) *uavnet.Scenario {
	sc := *base
	sc.UAVs = nil
	for i, c := range capacities {
		sc.UAVs = append(sc.UAVs, uavnet.UAV{
			Name:      fmt.Sprintf("uav-%d", i),
			Capacity:  c,
			Tx:        uavnet.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
			UserRange: 500,
		})
	}
	return &sc
}
