package core

import (
	"math/rand"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
)

// benchInstance builds a mid-size random instance (8x8 grid, 60 users, 8
// heterogeneous UAVs) comparable to one paper data point, plus everything
// evaluateSubset needs: the Algorithm 1 budget, the Q_h caps, the
// capacity-ordered caps vector, and the index of the first anchor subset the
// pruning rule does not discard.
func benchInstance(b *testing.B, s int) (in *Instance, idx int64, anchors []int, budget Budget, q, caps []int, opts Options) {
	b.Helper()
	r := rand.New(rand.NewSource(9))
	sc := &Scenario{
		Grid:     geom.Grid{Length: 4000, Width: 4000, Side: 500, Altitude: 300},
		UAVRange: 750,
		Channel:  channel.DefaultParams(),
	}
	for i := 0; i < 60; i++ {
		sc.Users = append(sc.Users, User{
			Pos: geom.Point2{X: r.Float64() * 4000, Y: r.Float64() * 4000},
		})
	}
	for k := 0; k < 8; k++ {
		sc.UAVs = append(sc.UAVs, UAV{
			Capacity:  3 + r.Intn(8),
			Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
			UserRange: 400 + float64(r.Intn(3))*200,
		})
	}
	in, err := NewInstance(sc)
	if err != nil {
		b.Fatal(err)
	}
	opts = Options{S: s}.withDefaults()
	budget, err = PlanBudget(sc.K(), s)
	if err != nil {
		b.Fatal(err)
	}
	q = QValues(budget.LMax, budget.P)
	caps = make([]int, sc.K())
	for rr, uav := range in.ByCapacity {
		caps[rr] = sc.UAVs[uav].Capacity
	}

	// Find the first subset that survives pruning and yields a feasible
	// deployment, so every benchmark iteration runs the full evaluation body.
	src := newSubsetSource(sc.M(), s, opts, false)
	oracle, err := newPlacementOracle(in, caps)
	if err != nil {
		b.Fatal(err)
	}
	scr := newEvalScratch(in, q)
	total, _ := subsetSpace(sc.M(), s, opts)
	for idx = 0; idx < total; idx++ {
		sub, err := src.at(idx)
		if err != nil {
			b.Fatal(err)
		}
		res, ok, _, err := evaluateSubset(in, idx, sub, budget, q, caps, opts, oracle, scr)
		if err != nil {
			b.Fatal(err)
		}
		if ok && res.served > 0 {
			return in, idx, append([]int(nil), sub...), budget, q, caps, opts
		}
	}
	b.Fatal("no feasible benchmark subset found")
	return
}

// BenchmarkSubsetEval measures one full anchor-subset evaluation (Algorithm 2
// lines 5-23). The scratch-reuse variant is the steady-state configuration of
// the parallel enumeration and should report ~zero allocs/op; the
// fresh-scratch variant re-creates the per-worker arenas every iteration,
// which is what the pre-arena implementation effectively paid per subset.
func BenchmarkSubsetEval(b *testing.B) {
	in, idx, anchors, budget, q, caps, opts := benchInstance(b, 3)

	b.Run("scratch-reuse", func(b *testing.B) {
		oracle, err := newPlacementOracle(in, caps)
		if err != nil {
			b.Fatal(err)
		}
		scr := newEvalScratch(in, q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, _, err := evaluateSubset(in, idx, anchors, budget, q, caps, opts, oracle, scr); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})

	b.Run("fresh-scratch", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			oracle, err := newPlacementOracle(in, caps)
			if err != nil {
				b.Fatal(err)
			}
			scr := newEvalScratch(in, q)
			if _, ok, _, err := evaluateSubset(in, idx, anchors, budget, q, caps, opts, oracle, scr); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
	})
}

// BenchmarkConnectLocations isolates the relay-connection step (Algorithm 2
// lines 13-15): the oracle variant reads MST edges and paths from the
// instance's precomputed structures, the bfs variant is the package-level
// function that re-runs per-terminal BFS and per-edge ShortestPath.
func BenchmarkConnectLocations(b *testing.B) {
	in, _, _, _, q, _, _ := benchInstance(b, 3)
	// A spread-out selection so the MST has real paths to expand.
	m := in.Scenario.M()
	selected := []int{0, m / 3, 2 * m / 3, m - 1}

	b.Run("oracle", func(b *testing.B) {
		scr := newEvalScratch(in, q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scr.connectLocations(in, selected); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("bfs", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := connectLocations(in.LocGraph, selected); err != nil {
				b.Fatal(err)
			}
		}
	})
}
