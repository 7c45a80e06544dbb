package core

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
)

// leftoversReference is extendWithLeftovers with the candidate scan written
// the plain way: every cell in index order, kept when it is free and
// adjacent to the network, replaced only by a strictly larger gain. Ties go
// to the smallest cell by construction, with no visit-order argument.
func leftoversReference(scr *evalScratch, in *Instance, slotLoc []int, caps []int) []int {
	k := in.Scenario.K()
	if len(slotLoc) >= k {
		return slotLoc
	}
	scr.epoch++
	clear(scr.claimed)
	for slot, loc := range slotLoc {
		scr.used[loc] = scr.epoch
		scr.claimUsers(in, slot, loc, caps[slot])
	}
	for slot := len(slotLoc); slot < k; slot++ {
		uav := in.ByCapacity[slot]
		bestLoc, bestGain := -1, 0
		for c := 0; c < in.Scenario.M(); c++ {
			if scr.used[c] == scr.epoch || !slices.ContainsFunc(slotLoc, func(v int) bool { return in.LocGraph.HasEdge(v, c) }) {
				continue
			}
			gain := 0
			for _, u := range in.EligibleUsers(uav, c) {
				gain += scr.claimAvail(in, u)
			}
			if gain = min(gain, caps[slot]); gain > bestGain {
				bestLoc, bestGain = c, gain
			}
		}
		if bestLoc == -1 {
			break
		}
		slotLoc = append(slotLoc, bestLoc)
		scr.used[bestLoc] = scr.epoch
		scr.claimUsers(in, slot, bestLoc, caps[slot])
	}
	return slotLoc
}

// TestExtendWithLeftoversMatchesReference checks the leftover extension —
// one visit per candidate, gains read from the claim bitset — against the
// reference scan on dense grids (100 m cells, 600 m UAV range, so network
// nodes share most neighbours) whose capacities are small against the
// eligible users per cell, so many candidates tie at the capacity cap. Each
// scenario runs per-user and aggregated at 150 m, where demand nodes weigh
// several users and claims are partial. Start networks are random connected
// cell sets in random slot order.
func TestExtendWithLeftoversMatchesReference(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 6; trial++ {
		sc := &Scenario{
			Grid:     geom.Grid{Length: 1500, Width: 1500, Side: 100, Altitude: 300},
			UAVRange: 600,
			Channel:  channel.DefaultParams(),
		}
		for i := 0; i < 150+r.Intn(300); i++ {
			sc.Users = append(sc.Users, User{Pos: geom.Point2{X: r.Float64() * 1500, Y: r.Float64() * 1500}, MinRateBps: 2000})
		}
		for k := 0; k < 6+r.Intn(6); k++ {
			sc.UAVs = append(sc.UAVs, UAV{
				Capacity:  2 + r.Intn(30),
				Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
				UserRange: 300 + float64(r.Intn(3))*100,
			})
		}
		perUser, err := NewInstance(sc)
		if err != nil {
			t.Fatal(err)
		}
		aggregated, err := NewAggregateInstance(sc, AggOptions{CellSide: 150})
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range []*Instance{perUser, aggregated} {
			caps := make([]int, sc.K())
			for rr, uav := range in.ByCapacity {
				caps[rr] = sc.UAVs[uav].Capacity
			}
			oracle, err := newPlacementOracle(in, caps)
			if err != nil {
				t.Fatal(err)
			}
			scr := newEvalScratch(in, []int{sc.K()}, oracle)
			ref := newEvalScratch(in, []int{sc.K()}, oracle)
			for rep := 0; rep < 40; rep++ {
				start := []int{r.Intn(sc.M())}
				for size := 1 + r.Intn(sc.K()-1); len(start) < size; {
					nbs := in.LocGraph.Neighbors(start[r.Intn(len(start))])
					if nb := nbs[r.Intn(len(nbs))]; !slices.Contains(start, nb) {
						start = append(start, nb)
					}
				}
				got := scr.extendWithLeftovers(in, slices.Clone(start), caps)
				want := leftoversReference(ref, in, slices.Clone(start), caps)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d (aggregated %v): network %v extends to %v, reference %v",
						trial, in.Aggregated(), start, got, want)
				}
			}
		}
	}
}
