package core

import (
	"testing"
)

// BenchmarkOracleGain measures one speculative marginal-gain query against a
// committed three-station state, cycling over every candidate location — the
// exact operation the lazy greedy issues thousands of times per subset (a
// Kuhn augmenting search over the matcher's committed owner array).
func BenchmarkOracleGain(b *testing.B) {
	ev, anchors := benchInstance(b, 3)
	m := ev.in.Scenario.M()
	b.Run("matcher", func(b *testing.B) {
		oracle, err := newPlacementOracle(ev.in, ev.caps)
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

// BenchmarkOracleRoundBound measures the dynamic pruning bound the matcher
// path adds: a popcount of the candidate's eligibility mask against the
// still-augmentable user set, amortizing one lazy reach recomputation.
func BenchmarkOracleRoundBound(b *testing.B) {
	ev, anchors := benchInstance(b, 3)
	m := ev.in.Scenario.M()
	oracle, err := newPlacementOracle(ev.in, ev.caps)
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
