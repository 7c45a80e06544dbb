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
	scr := newEvalScratch(in, q, oracle)
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

// subsetBench is one BenchmarkSubsetEval case: an instance, the state
// evaluateSubset needs, and the anchor subsets the timed loop cycles through.
type subsetBench struct {
	in      *Instance
	budget  Budget
	q, caps []int
	opts    Options
	subsets [][]int
}

// benchCaseM64 is benchInstance's first feasible subset on the 8x8 grid.
func benchCaseM64(b *testing.B) subsetBench {
	in, _, anchors, budget, q, caps, opts := benchInstance(b, 3)
	return subsetBench{in: in, budget: budget, q: q, caps: caps, opts: opts, subsets: [][]int{anchors}}
}

// benchCaseM900 is the portfolio-m900 benchmark's scenario shape — a 3 km
// square on a 100 m grid (m = 900, average degree about 94), 600 uniform
// users, 10 UAVs with capacities in [20, 120] — and the first 64 sampled
// anchor subsets that evaluate to a feasible deployment, so the timed loop
// averages over subset shapes the way a portfolio run does.
func benchCaseM900(b *testing.B) subsetBench {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	sc := &Scenario{
		Grid:     geom.Grid{Length: 3000, Width: 3000, Side: 100, Altitude: 300},
		UAVRange: 600,
		Channel:  channel.DefaultParams(),
	}
	for i := 0; i < 600; i++ {
		sc.Users = append(sc.Users, User{
			Pos:        geom.Point2{X: r.Float64() * 3000, Y: r.Float64() * 3000},
			MinRateBps: 2000,
		})
	}
	for k := 0; k < 10; k++ {
		sc.UAVs = append(sc.UAVs, UAV{
			Capacity:  20 + r.Intn(101),
			Tx:        channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3},
			UserRange: 500,
		})
	}
	in, err := NewInstance(sc)
	if err != nil {
		b.Fatal(err)
	}
	sb := subsetBench{in: in, opts: Options{S: 3, Seed: 1}.withDefaults()}
	if sb.budget, err = PlanBudget(sc.K(), 3); err != nil {
		b.Fatal(err)
	}
	sb.q = QValues(sb.budget.LMax, sb.budget.P)
	sb.caps = make([]int, sc.K())
	for rr, uav := range in.ByCapacity {
		sb.caps[rr] = sc.UAVs[uav].Capacity
	}
	oracle, err := newPlacementOracle(in, sb.caps)
	if err != nil {
		b.Fatal(err)
	}
	scr := newEvalScratch(in, sb.q, oracle)
	src := newSubsetSource(sc.M(), 3, sb.opts, true)
	for idx := int64(0); len(sb.subsets) < 64; idx++ {
		sub, err := src.at(idx)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok, _, err := evaluateSubset(in, idx, sub, sb.budget, sb.q, sb.caps, sb.opts, oracle, scr); err != nil {
			b.Fatal(err)
		} else if ok {
			sb.subsets = append(sb.subsets, append([]int(nil), sub...))
		}
	}
	return sb
}

// BenchmarkSubsetEval measures one full anchor-subset evaluation (Algorithm 2
// lines 5-23) at m = 64 and at m = 900. The scratch-reuse variant is the
// steady-state configuration of the enumeration workers and the portfolio's
// evaluators and reports 0 allocs/op; the fresh-scratch variant re-creates
// the per-worker arenas every iteration, which is what the pre-arena
// implementation effectively paid per subset.
//
// To see where an m = 900 evaluation spends its time:
//
//	go test -run '^$' -bench 'SubsetEval/m=900/scratch-reuse' -cpuprofile cpu.out ./internal/core
//	go tool pprof -top cpu.out
func BenchmarkSubsetEval(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func(*testing.B) subsetBench
	}{{"m=64", benchCaseM64}, {"m=900", benchCaseM900}} {
		sb := c.build(b)
		eval := func(b *testing.B, i int, oracle *placementOracle, scr *evalScratch) {
			anchors := sb.subsets[i%len(sb.subsets)]
			if _, ok, _, err := evaluateSubset(sb.in, 0, anchors, sb.budget, sb.q, sb.caps, sb.opts, oracle, scr); err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
		}
		b.Run(c.name+"/scratch-reuse", func(b *testing.B) {
			oracle, err := newPlacementOracle(sb.in, sb.caps)
			if err != nil {
				b.Fatal(err)
			}
			scr := newEvalScratch(sb.in, sb.q, oracle)
			// One untimed pass grows every scratch buffer to its working size.
			for i := range sb.subsets {
				eval(b, i, oracle, scr)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval(b, i, oracle, scr)
			}
		})
		b.Run(c.name+"/fresh-scratch", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				oracle, err := newPlacementOracle(sb.in, sb.caps)
				if err != nil {
					b.Fatal(err)
				}
				eval(b, i, oracle, newEvalScratch(sb.in, sb.q, oracle))
			}
		})
	}
}

// BenchmarkConnectLocations isolates the relay-connection step (Algorithm 2
// lines 13-15), which reads MST edges and paths from the instance's
// precomputed structures.
func BenchmarkConnectLocations(b *testing.B) {
	in, _, _, _, q, caps, _ := benchInstance(b, 3)
	oracle, err := newPlacementOracle(in, caps)
	if err != nil {
		b.Fatal(err)
	}
	// A spread-out selection so the MST has real paths to expand.
	m := in.Scenario.M()
	selected := []int{0, m / 3, 2 * m / 3, m - 1}

	b.Run("oracle", func(b *testing.B) {
		scr := newEvalScratch(in, q, oracle)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scr.connectLocations(in, selected); err != nil {
				b.Fatal(err)
			}
		}
	})
}
