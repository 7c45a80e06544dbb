// Mobility re-planning: the Section II-C loop. Users drift through the
// disaster zone under a Lévy-flight mobility model; a deployment that was
// optimal at time zero degrades, so the operator periodically re-runs the
// deployment algorithm on fresh position estimates.
//
// The example compares "deploy once and hover" against "re-deploy every
// epoch" and prints the served-user trajectory of both policies.
//
// Run with:
//
//	go run ./examples/mobility-replan
package main

import (
	"context"
	"fmt"
	"log"

	uavnet "github.com/uav-coverage/uavnet"
)

func main() {
	ctx := context.Background()
	spec := uavnet.ScenarioSpec{
		AreaSide: 2000,
		CellSide: 500,
		N:        300,
		K:        6,
		CMin:     30,
		CMax:     120,
		Seed:     3,
	}
	sc, err := uavnet.GenerateScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	opts := uavnet.Options{S: 2}

	// Initial deployment on the time-zero positions.
	initial, err := uavnet.DeployContext(ctx, sc, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=0: deployed %d UAVs, serving %d / %d users\n\n",
		initial.DeployedCount(), initial.Served, sc.N())

	// Heavy-tailed user drift: mostly small moves, occasional long jumps.
	model, err := uavnet.NewLevyFlight(sc.Grid, 1.6, 20, 1200, 0.6, 99)
	if err != nil {
		log.Fatal(err)
	}

	positions := make([]uavnet.Point, sc.N())
	for i, u := range sc.Users {
		positions[i] = u.Pos
	}
	timeZero := append([]uavnet.Point(nil), positions...)

	fmt.Println("epoch  drift(m)  static-served  replan-served")
	const epochs = 8
	for epoch := 1; epoch <= epochs; epoch++ {
		if err := model.Step(positions, 60); err != nil {
			log.Fatal(err)
		}
		drift, err := uavnet.MeanDisplacement(timeZero, positions)
		if err != nil {
			log.Fatal(err)
		}

		// Both policies face the same moved users.
		moved := *sc
		moved.Users = make([]uavnet.User, sc.N())
		for i := range moved.Users {
			moved.Users[i] = uavnet.User{Pos: positions[i], MinRateBps: sc.Users[i].MinRateBps}
		}
		in, err := uavnet.NewInstance(&moved)
		if err != nil {
			log.Fatal(err)
		}

		// Static policy: keep the t=0 placement, only re-assign users.
		static, err := uavnet.EvaluatePlacement(in, initial.LocationOf)
		if err != nil {
			log.Fatal(err)
		}
		// Re-planning policy: run the full algorithm again.
		replan, err := uavnet.DeployInstanceContext(ctx, in, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d  %8.0f  %13d  %13d\n", epoch, drift, static.Served, replan.Served)
	}
	fmt.Println("\nre-planning recovers the users that drift away from the static placement")
	fmt.Println("(Section II-C: re-detect positions from UAV cameras, then re-run approAlg)")
}
