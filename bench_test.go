// Benchmarks regenerating the paper's evaluation (Section IV) at a reduced
// scale, one benchmark family per figure, plus micro-benchmarks for the
// substrates. The full-fidelity runs (3x3 km, n = 3000, K = 20) are driven
// by cmd/uavbench; these benches keep iterations small enough for
// `go test -bench=. -benchmem` to finish in minutes on a laptop.
//
//	BenchmarkFig4/...  served users vs number of UAVs K
//	BenchmarkFig5/...  served users vs number of users n
//	BenchmarkFig6/...  served users and running time vs parameter s
//	                   (time/op IS Fig. 6(b)'s metric)
package uavnet_test

import (
	"context"
	"fmt"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
)

// benchParams is the reduced-scale Section IV-A setting shared by the
// figure benchmarks: same area shape and fleet heterogeneity, fewer users
// and a coarser sweep so one point fits in a benchmark iteration.
func benchParams() uavnet.ScenarioSpec {
	return uavnet.ScenarioSpec{
		AreaSide: 3000,
		CellSide: 500,
		N:        600,
		K:        10,
		CMin:     20,
		CMax:     120,
		Seed:     1,
	}
}

func benchInstance(b *testing.B, p uavnet.ScenarioSpec) *uavnet.Instance {
	b.Helper()
	in, err := uavnet.GenerateInstance(p)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkFig4 regenerates one K-point of Fig. 4 per sub-benchmark:
// approAlg on the paper's scenario shape with K swept.
func BenchmarkFig4(b *testing.B) {
	for _, k := range []int{2, 6, 10} {
		b.Run(fmt.Sprintf("approAlg/K=%d", k), func(b *testing.B) {
			p := benchParams()
			p.K = k
			in := benchInstance(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				if dep.Served == 0 {
					b.Fatal("served nobody")
				}
			}
		})
	}
	// The baselines complete the figure's five curves.
	for _, name := range uavnet.AlgorithmNames()[1:] {
		b.Run(fmt.Sprintf("%s/K=10", name), func(b *testing.B) {
			in := benchInstance(b, benchParams())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := uavnet.DeployWithContext(context.Background(), name, in, uavnet.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5 regenerates one n-point of Fig. 5 per sub-benchmark.
func BenchmarkFig5(b *testing.B) {
	for _, n := range []int{200, 400, 600} {
		b.Run(fmt.Sprintf("approAlg/n=%d", n), func(b *testing.B) {
			p := benchParams()
			p.N = n
			in := benchInstance(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := uavnet.DeployInstance(in, uavnet.Options{S: 2, Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6 regenerates Fig. 6: the reported time/op across the s
// sub-benchmarks is exactly Fig. 6(b)'s running-time curve, and each run's
// served count traces Fig. 6(a).
func BenchmarkFig6(b *testing.B) {
	for _, s := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("approAlg/s=%d", s), func(b *testing.B) {
			in := benchInstance(b, benchParams())
			served := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := uavnet.DeployInstance(in, uavnet.Options{S: s, Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				served = dep.Served
			}
			b.ReportMetric(float64(served), "served")
		})
	}
}

// BenchmarkWorkerScaling measures the in-process parallel path on the
// Fig. 6 s=3 point: the same enumeration on 1, 2, 4, and 8 worker
// goroutines. The served metric must match across all worker counts — the
// worker count changes wall-clock only, never the answer. Speedup over
// workers=1 tracks available cores; on a single-core runner all points
// degenerate to the same time/op.
func BenchmarkWorkerScaling(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("approAlg/s=3/workers=%d", workers), func(b *testing.B) {
			in := benchInstance(b, benchParams())
			served := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := uavnet.DeployInstanceContext(context.Background(), in, uavnet.Options{S: 3, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				served = dep.Served
			}
			b.ReportMetric(float64(served), "served")
		})
	}
}

// BenchmarkPortfolio measures the metaheuristic portfolio (PR 8) past the
// enumeration wall: 100 m cells on the 3x3 km area give m = 900 candidate
// locations and C(900,3) = 120,816,600 anchor subsets — at the measured
// ~2 ms per exact evaluation on this instance, an exhaustive enumeration
// would run for days. The portfolio sub-benchmarks race all four members
// under a small per-member evaluation budget; the %enum metric reports the
// spent evaluations as a percentage of the full enumeration (the issue's
// "≤1% of enumeration budget" criterion). The enum sub-benchmark runs the
// actual enumeration truncated to the same total evaluation count
// (StopAfter), so the served metrics compare the two search orders at equal
// budget. Served counts trace BENCH_8.json.
func BenchmarkPortfolio(b *testing.B) {
	// C(900,3); keep in sync with the CellSide override below.
	const enumSubsets = 120_816_600
	p := benchParams()
	p.CellSide = 100 // m = 900
	in := benchInstance(b, p)
	for _, budget := range []int64{1000, 5000} {
		b.Run(fmt.Sprintf("portfolio/s=3/budget=%d", budget), func(b *testing.B) {
			served, evals := 0, int64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := uavnet.DeployInstance(in, uavnet.Options{
					S: 3, Solver: "portfolio", SolverBudget: budget, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				served, evals = dep.Served, dep.SubsetsEvaluated
			}
			b.ReportMetric(float64(served), "served")
			b.ReportMetric(100*float64(evals)/enumSubsets, "%enum")
		})
	}
	b.Run("enum/s=3/stop-after=20000", func(b *testing.B) {
		// The enumeration granted the same 4 x 5000 evaluations the
		// budget=5000 race spends: it is still walking subsets of the
		// lexicographically first cells when the budget runs out.
		served := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dep, err := uavnet.DeployInstance(in, uavnet.Options{S: 3, StopAfter: 20_000})
			if err != nil {
				b.Fatal(err)
			}
			if dep.Status != uavnet.StatusStopped {
				b.Fatalf("status %q, want stopped at the StopAfter budget", dep.Status)
			}
			served = dep.Served
		}
		b.ReportMetric(float64(served), "served")
		b.ReportMetric(100*float64(20_000)/enumSubsets, "%enum")
	})
}

// BenchmarkAblation isolates the implementation choices DESIGN.md calls
// out: subset pruning and the leftover-UAV extension pass.
func BenchmarkAblation(b *testing.B) {
	variants := []struct {
		name string
		opts uavnet.Options
	}{
		{"baseline", uavnet.Options{S: 2, Workers: 2}},
		{"no-prune", uavnet.Options{S: 2, Workers: 2, DisablePrune: true}},
		{"ground-leftovers", uavnet.Options{S: 2, Workers: 2, GroundLeftovers: true}},
		{"sampled-subsets", uavnet.Options{S: 2, Workers: 2, MaxSubsets: 40}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			in := benchInstance(b, benchParams())
			served := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := uavnet.DeployInstance(in, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				served = dep.Served
			}
			b.ReportMetric(float64(served), "served")
		})
	}
}

// BenchmarkAggregateSolve measures the demand-aggregation path (PR 6): the
// full approAlg search on an instance whose users were coarsened into
// weighted demand cells, at user counts the per-user path cannot touch. The
// per-user sub-benchmarks run the identical snapped workloads without
// aggregation — the direct cost comparison, since on snapped users the two
// paths provably serve the same count. Instance construction (binning +
// memoized radius lookups) is benchmarked separately.
func BenchmarkAggregateSolve(b *testing.B) {
	spec := func(n int) uavnet.ScenarioSpec {
		return uavnet.ScenarioSpec{
			AreaSide: 3000,
			CellSide: 500,
			N:        n,
			K:        20,
			CMin:     50,
			CMax:     300,
			Seed:     1,
			SnapSide: 250,
		}
	}
	aggOpts := uavnet.AggregateOptions{CellSide: 250}
	solve := uavnet.Options{S: 2, Workers: 2}

	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("aggregated/n=%d", n), func(b *testing.B) {
			in, err := uavnet.GenerateAggregateInstance(spec(n), aggOpts)
			if err != nil {
				b.Fatal(err)
			}
			served := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := uavnet.DeployInstance(in, solve)
				if err != nil {
					b.Fatal(err)
				}
				served = dep.Served
			}
			b.ReportMetric(float64(served), "served")
		})
	}
	for _, n := range []int{10_000, 100_000} { // 1M per-user is minutes/op
		b.Run(fmt.Sprintf("per-user/n=%d", n), func(b *testing.B) {
			in, err := uavnet.GenerateInstance(spec(n))
			if err != nil {
				b.Fatal(err)
			}
			served := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dep, err := uavnet.DeployInstance(in, solve)
				if err != nil {
					b.Fatal(err)
				}
				served = dep.Served
			}
			b.ReportMetric(float64(served), "served")
		})
	}
	b.Run("build/n=1000000", func(b *testing.B) {
		sc, err := uavnet.GenerateScenario(spec(1_000_000))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := uavnet.NewAggregateInstance(sc, aggOpts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAssignment measures the Section II-D max-flow oracle alone:
// optimal assignment of n users to 10 placed stations.
func BenchmarkAssignment(b *testing.B) {
	in := benchInstance(b, benchParams())
	locs := make([]int, in.Scenario.K())
	for i := range locs {
		locs[i] = i // first K cells; a legal, connected-ish placement
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uavnet.EvaluatePlacement(in, locs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstancePrecompute measures eligibility precomputation: channel
// radii, location graph, hop matrix.
func BenchmarkInstancePrecompute(b *testing.B) {
	p := benchParams()
	sc, err := uavnet.GenerateScenario(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uavnet.NewInstance(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverageRadius measures the channel model's numeric radius
// solver used once per (UAV class, rate requirement).
func BenchmarkCoverageRadius(b *testing.B) {
	ch := uavnet.DefaultChannel()
	tx := uavnet.Transmitter{PowerDBm: 30, AntennaGainDBi: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := ch.CoverageRadius(tx, 300, 2000); r <= 0 {
			b.Fatal("no radius")
		}
	}
}

// BenchmarkQueueSim measures the discrete-event queueing simulator that
// reproduces the paper's capacity motivation.
func BenchmarkQueueSim(b *testing.B) {
	cfg := uavnet.QueueConfig{
		ArrivalRatePerUser: 0.1,
		ServiceRate:        20,
		Duration:           500,
		WarmUp:             50,
		Seed:               1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uavnet.SimulateQueues([]int{100, 150}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioJSON measures scenario serialization round trips.
func BenchmarkScenarioJSON(b *testing.B) {
	sc, err := uavnet.GenerateScenario(benchParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := uavnet.MarshalScenario(sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := uavnet.UnmarshalScenario(data); err != nil {
			b.Fatal(err)
		}
	}
}
