package core

import (
	"testing"
)

// committedOracle returns benchInstance's evaluator as the greedy's oracle,
// with its matcher rewound and the anchors committed in slot order.
func committedOracle(b *testing.B) (o *greedyOracle, round int) {
	ev, anchors := benchInstance(b, 3)
	if err := ev.engine.Reset(); err != nil {
		b.Fatal(err)
	}
	o = (*greedyOracle)(ev)
	for slot, loc := range anchors {
		if _, err := o.Commit(slot, loc); err != nil {
			b.Fatal(err)
		}
	}
	return o, len(anchors)
}

// BenchmarkOracleGain measures one speculative marginal-gain query against a
// committed three-station state, cycling over every candidate location — the
// exact operation the lazy greedy issues thousands of times per subset (a
// Kuhn augmenting search over the matcher's committed owner array).
func BenchmarkOracleGain(b *testing.B) {
	b.Run("matcher", func(b *testing.B) {
		o, round := committedOracle(b)
		m := o.in.Scenario.M()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.Gain(round, i%m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOracleRoundBound measures the dynamic pruning bound the matcher
// path adds: a popcount of the candidate's eligibility mask against the
// still-augmentable user set, amortizing one lazy reach recomputation.
func BenchmarkOracleRoundBound(b *testing.B) {
	o, round := committedOracle(b)
	m := o.in.Scenario.M()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.RoundBound(round, i%m)
	}
}
