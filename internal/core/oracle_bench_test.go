package core

import (
	"testing"
)

// BenchmarkOracleGain measures one speculative marginal-gain query against a
// committed three-station state, cycling over every candidate location — the
// exact operation the lazy greedy issues thousands of times per subset. The
// matcher variant is the default engine (Kuhn augmenting search over the
// committed owner array); the dinic variant is the flow-based reference
// (assign.Evaluator, clone + augment per query).
func BenchmarkOracleGain(b *testing.B) {
	in, _, anchors, _, _, caps, _ := benchInstance(b, 3)
	m := in.Scenario.M()

	for _, variant := range []struct {
		name      string
		newOracle func(*Instance, []int) (*placementOracle, error)
	}{
		{"matcher", newPlacementOracle},
		{"dinic", newReferenceOracle},
	} {
		b.Run(variant.name, func(b *testing.B) {
			oracle, err := variant.newOracle(in, caps)
			if err != nil {
				b.Fatal(err)
			}
			for slot, loc := range anchors {
				if _, err := oracle.Commit(slot, loc); err != nil {
					b.Fatal(err)
				}
			}
			round := len(anchors)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.Gain(round, i%m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOracleRoundBound measures the dynamic pruning bound the matcher
// path adds: a popcount of the candidate's eligibility mask against the
// still-augmentable user set, amortizing one lazy reach recomputation.
func BenchmarkOracleRoundBound(b *testing.B) {
	in, _, anchors, _, _, caps, _ := benchInstance(b, 3)
	m := in.Scenario.M()
	oracle, err := newPlacementOracle(in, caps)
	if err != nil {
		b.Fatal(err)
	}
	for slot, loc := range anchors {
		if _, err := oracle.Commit(slot, loc); err != nil {
			b.Fatal(err)
		}
	}
	round := len(anchors)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.RoundBound(round, i%m)
	}
}
