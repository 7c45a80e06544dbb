package matroid

import (
	"math/rand"
	"testing"
)

// dynCoverOracle wraps coverOracle with both bound extensions: Bound is the
// static cover size, RoundBound the exact still-uncovered count (the tightest
// sound bound). gainCalls counts exact evaluations so tests can assert the
// dynamic bound actually skips work; boundCalls counts RoundBound probes.
type dynCoverOracle struct {
	*coverOracle
	gainCalls  int
	boundCalls int
}

func (o *dynCoverOracle) Gain(round, e int) (int, error) {
	o.gainCalls++
	return o.coverOracle.Gain(round, e)
}

func (o *dynCoverOracle) Bound(e int) int { return len(o.covers[e]) }

func (o *dynCoverOracle) RoundBound(_, e int) int {
	o.boundCalls++
	g := 0
	for _, item := range o.covers[e] {
		if !o.covered[item] {
			g++
		}
	}
	return g
}

// slackCoverOracle returns sound but deliberately loose dynamic bounds
// (exact gain plus a per-element slack), checking that bound quality affects
// only cost, never the selection.
type slackCoverOracle struct {
	*coverOracle
	slack int
}

func (o *slackCoverOracle) RoundBound(round, e int) int {
	g, _ := o.coverOracle.Gain(round, e)
	return g + o.slack
}

// TestLazyGreedyDynamicBoundMatchesNaiveProperty drives the DynamicBounder
// re-key path on random instances and asserts the selection is identical to
// the plain naive greedy's — the soundness contract's observable half.
func TestLazyGreedyDynamicBoundMatchesNaiveProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 120; trial++ {
		nElems := 2 + r.Intn(10)
		nItems := 1 + r.Intn(15)
		covers := make([][]int, nElems)
		for e := range covers {
			for it := 0; it < nItems; it++ {
				if r.Intn(3) == 0 {
					covers[e] = append(covers[e], it)
				}
			}
		}
		ground := make([]int, nElems)
		for i := range ground {
			ground[i] = i
		}
		rounds := 1 + r.Intn(nElems)

		var oracle Oracle
		if trial%2 == 0 {
			oracle = &dynCoverOracle{coverOracle: newCoverOracle(covers)}
		} else {
			oracle = &slackCoverOracle{coverOracle: newCoverOracle(covers), slack: r.Intn(4)}
		}
		dynSel, err := lazyGreedy(ground, rounds, unconstrained, oracle)
		if err != nil {
			t.Fatal(err)
		}
		naiveSel, err := NaiveGreedy(ground, rounds, unconstrained, newCoverOracle(covers))
		if err != nil {
			t.Fatal(err)
		}
		if len(dynSel) != len(naiveSel) {
			t.Fatalf("trial %d: dynamic %v vs naive %v", trial, dynSel, naiveSel)
		}
		for i := range dynSel {
			if dynSel[i] != naiveSel[i] {
				t.Fatalf("trial %d: dynamic %v vs naive %v", trial, dynSel, naiveSel)
			}
		}
	}
}

// TestLazyGreedyDynamicBoundSkipsGainCalls pins the point of the extension:
// with a tight dynamic bound, stale entries whose bound already falls below
// the heap top are re-keyed without an exact evaluation. The instance makes
// element 0 the clear first pick, after which elements 1..4 (whose items 0
// fully covers) must be prunable by bound alone.
func TestLazyGreedyDynamicBoundSkipsGainCalls(t *testing.T) {
	t.Parallel()
	covers := [][]int{
		{0, 1, 2, 3, 4, 5}, // round 0 winner
		{0, 1, 2},          // worthless after element 0 commits
		{1, 2, 3},
		{2, 3, 4},
		{3, 4, 5},
		{6, 7}, // round 1 winner, untouched by element 0
	}
	ground := []int{0, 1, 2, 3, 4, 5}

	dyn := &dynCoverOracle{coverOracle: newCoverOracle(covers)}
	sel, err := lazyGreedy(ground, 2, unconstrained, dyn)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0] != 0 || sel[1] != 5 {
		t.Fatalf("selection = %v, want [0 5]", sel)
	}
	if dyn.boundCalls == 0 {
		t.Fatal("RoundBound never consulted")
	}

	plain := &dynCoverOracle{coverOracle: newCoverOracle(covers)}
	var lr LazyRunner
	// struct{ Oracle } promotes only Gain/Commit, hiding Bound and
	// RoundBound: the same instance through the bound-less path counts the
	// baseline number of exact evaluations.
	if _, err := lr.Run(ground, 2, unconstrained, struct{ Oracle }{plain}); err != nil {
		t.Fatal(err)
	}
	if dyn.gainCalls >= plain.gainCalls {
		t.Errorf("dynamic bound evaluated %d gains, static path %d — expected strictly fewer",
			dyn.gainCalls, plain.gainCalls)
	}
}

// TestLazyGreedyDynamicBoundTerminates guards the re-key loop's termination
// argument (each re-key strictly decreases an integer bound): a bound that
// never drops must not loop.
func TestLazyGreedyDynamicBoundTerminates(t *testing.T) {
	t.Parallel()
	covers := [][]int{{0}, {1}, {2}}
	oracle := &slackCoverOracle{coverOracle: newCoverOracle(covers), slack: 100}
	sel, err := lazyGreedy([]int{0, 1, 2}, 3, unconstrained, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 3 {
		t.Fatalf("selection = %v, want all 3 elements", sel)
	}
}
