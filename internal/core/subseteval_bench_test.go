package core

import (
	"math/rand"
	"testing"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/geom"
)

// benchInstance builds a mid-size random instance (8x8 grid, 60 users, 8
// heterogeneous UAVs) comparable to one paper data point, an evaluator for
// it, and the first anchor subset that survives pruning and serves someone.
func benchInstance(b *testing.B, s int) (ev *SubsetEvaluator, anchors []int) {
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
	opts := Options{S: s}
	if ev, err = NewSubsetEvaluator(in, opts); err != nil {
		b.Fatal(err)
	}
	// Find the first subset that survives pruning and yields a feasible
	// deployment, so every benchmark iteration runs the full evaluation body.
	src := newSubsetSource(sc.M(), s, opts, false)
	total, _ := subsetSpace(sc.M(), s, opts)
	for idx := int64(0); idx < total; idx++ {
		sub, err := src.at(idx)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ev.Evaluate(sub)
		if err != nil {
			b.Fatal(err)
		}
		if res.Served > 0 {
			return ev, append([]int(nil), sub...)
		}
	}
	b.Fatal("no feasible benchmark subset found")
	return
}

// subsetBench is one BenchmarkSubsetEval case: an instance, the options its
// evaluators score under, and the anchor subsets the timed loop cycles
// through.
type subsetBench struct {
	in      *Instance
	opts    Options
	subsets [][]int
}

// benchCaseM64 is benchInstance's first feasible subset on the 8x8 grid.
func benchCaseM64(b *testing.B) subsetBench {
	ev, anchors := benchInstance(b, 3)
	return subsetBench{in: ev.in, opts: ev.opts, subsets: [][]int{anchors}}
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
	sb := subsetBench{in: in, opts: Options{S: 3, Seed: 1}}
	ev, err := NewSubsetEvaluator(in, sb.opts)
	if err != nil {
		b.Fatal(err)
	}
	src := newSubsetSource(sc.M(), 3, sb.opts, true)
	for idx := int64(0); len(sb.subsets) < 64; idx++ {
		sub, err := src.at(idx)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := ev.Evaluate(sub); err != nil {
			b.Fatal(err)
		} else if res.Feasible {
			sb.subsets = append(sb.subsets, append([]int(nil), sub...))
		}
	}
	return sb
}

// BenchmarkSubsetEval measures one full anchor-subset evaluation (Algorithm 2
// lines 5-23) at m = 64 and at m = 900. The scratch-reuse variant is the
// steady state of the evaluator every enumeration worker and portfolio
// member holds, and reports 0 allocs/op; the fresh-scratch variant builds a
// new evaluator every iteration, which is what the pre-arena implementation
// effectively paid per subset.
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
		eval := func(b *testing.B, i int, ev *SubsetEvaluator) {
			anchors := sb.subsets[i%len(sb.subsets)]
			if res, err := ev.Evaluate(anchors); err != nil || !res.Feasible {
				b.Fatalf("feasible=%v err=%v", res.Feasible, err)
			}
		}
		newEvaluator := func(b *testing.B) *SubsetEvaluator {
			ev, err := NewSubsetEvaluator(sb.in, sb.opts)
			if err != nil {
				b.Fatal(err)
			}
			return ev
		}
		b.Run(c.name+"/scratch-reuse", func(b *testing.B) {
			ev := newEvaluator(b)
			// One untimed pass grows every scratch buffer to its working size.
			for i := range sb.subsets {
				eval(b, i, ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval(b, i, ev)
			}
		})
		b.Run(c.name+"/fresh-scratch", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval(b, i, newEvaluator(b))
			}
		})
	}
}

// BenchmarkConnectLocations isolates the relay-connection step (Algorithm 2
// lines 13-15), which reads MST edges and paths from the instance's
// precomputed structures.
func BenchmarkConnectLocations(b *testing.B) {
	ev, _ := benchInstance(b, 3)
	// A spread-out selection so the MST has real paths to expand.
	m := ev.in.Scenario.M()
	selected := []int{0, m / 3, 2 * m / 3, m - 1}

	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.connectLocations(selected); err != nil {
				b.Fatal(err)
			}
		}
	})
}
