package matroid

import (
	"math/rand"
	"slices"
	"testing"
)

// capCoverOracle is a round-capped coverage objective, the shape of UAV
// placement: round r's element gains min(caps[r], its still-uncovered
// items), and committing it covers that many of them in item order. caps is
// non-increasing, so a gain never grows as rounds advance and every bound
// below is sound.
type capCoverOracle struct {
	covers  [][]int
	caps    []int
	covered []bool
}

func (o *capCoverOracle) uncovered(e int) int {
	g := 0
	for _, it := range o.covers[e] {
		if !o.covered[it] {
			g++
		}
	}
	return g
}

func (o *capCoverOracle) Gain(round, e int) (int, error) {
	return min(o.caps[round], o.uncovered(e)), nil
}

func (o *capCoverOracle) Commit(round, e int) (int, error) {
	g := 0
	for _, it := range o.covers[e] {
		if g == o.caps[round] {
			break
		}
		if !o.covered[it] {
			o.covered[it] = true
			g++
		}
	}
	return g, nil
}

// staticCapOracle adds the static bound min(caps[0], |covers[e]|).
type staticCapOracle struct{ *capCoverOracle }

func (o staticCapOracle) Bound(e int) int { return min(o.caps[0], len(o.covers[e])) }

// dynCapOracle adds a dynamic bound, exact plus slack.
type dynCapOracle struct {
	staticCapOracle
	slack int
}

func (o dynCapOracle) RoundBound(round, e int) int {
	return min(o.caps[round], o.uncovered(e)) + o.slack
}

// roundClassOracle is capCoverOracle with one coverage family per class:
// round r's element e covers covers[class[r]][e], the shape of a fleet whose
// UAVs carry different radios. caps is non-increasing, so a gain cannot rise
// while the class holds; at a class change it can, and Rekey reports those
// rounds. Bound reads round 0's class, so it is sound up to the first
// re-key only.
type roundClassOracle struct {
	covers  [][][]int
	class   []int
	caps    []int
	covered []bool
}

func (o *roundClassOracle) Gain(round, e int) (int, error) {
	g := 0
	for _, it := range o.covers[o.class[round]][e] {
		if !o.covered[it] {
			g++
		}
	}
	return min(o.caps[round], g), nil
}

func (o *roundClassOracle) Commit(round, e int) (int, error) {
	g := 0
	for _, it := range o.covers[o.class[round]][e] {
		if g == o.caps[round] {
			break
		}
		if !o.covered[it] {
			o.covered[it] = true
			g++
		}
	}
	return g, nil
}

func (o *roundClassOracle) Rekey(round int) bool { return o.class[round] != o.class[round-1] }

func (o *roundClassOracle) Bound(e int) int { return min(o.caps[0], len(o.covers[o.class[0]][e])) }

// roundClassDyn adds a dynamic bound, exact plus slack.
type roundClassDyn struct {
	*roundClassOracle
	slack int
}

func (o roundClassDyn) RoundBound(round, e int) int {
	g, _ := o.Gain(round, e)
	return g + o.slack
}

// TestRekeyMatchesNaive holds Run and RunHop to NaiveGreedy on oracles whose
// gains switch with the round's class, under random hop-count matroids and
// with each bound shape: none, static, static plus dynamic. The same
// oracles with Rekey hidden must select differently on some trials, or the
// instances never make a carried key unsound.
func TestRekeyMatchesNaive(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(53))
	var runner LazyRunner
	stale := 0
	for trial := 0; trial < 3000; trial++ {
		n, nItems, classes := 2+r.Intn(20), 1+r.Intn(20), 1+r.Intn(3)
		rounds := 1 + r.Intn(n)
		base := roundClassOracle{covers: make([][][]int, classes), class: make([]int, rounds), caps: make([]int, rounds)}
		for c := range base.covers {
			base.covers[c] = make([][]int, n)
			for e := range base.covers[c] {
				for it := 0; it < nItems; it++ {
					if r.Intn(3) == 0 {
						base.covers[c][e] = append(base.covers[c][e], it)
					}
				}
			}
		}
		capacity := 1 + r.Intn(8)
		for rr := range base.caps {
			base.class[rr], base.caps[rr] = r.Intn(classes), capacity
			if capacity > 1 && r.Intn(2) == 0 {
				capacity--
			}
		}
		hmax := r.Intn(3)
		m := HopCount{Dist: make([]int, n), Q: make([]int, hmax+1)}
		for e := range m.Dist {
			m.Dist[e] = r.Intn(hmax+3) - 1 // Unreachable up to hmax+1
		}
		for h := range m.Q {
			m.Q[h] = 1 + r.Intn(n)
		}
		fresh := func() *roundClassOracle {
			o := base
			o.covered = make([]bool, nItems)
			return &o
		}
		slack := r.Intn(3)
		shape := func(o *roundClassOracle) Oracle {
			switch trial % 3 {
			case 0:
				return struct {
					Oracle
					Rekeyer
				}{o, o}
			case 1:
				return o
			}
			return roundClassDyn{o, slack}
		}

		universe := make([]int, n)
		for e := range universe {
			universe[e] = e
		}
		naive, err := NaiveGreedy(universe, rounds, m.CanAdd, fresh())
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(m.Q))
		feasible := func(sel []int, e int) bool { return m.CanAddInto(sel, e, counts) }
		lazy, err := runner.Run(universe, rounds, feasible, shape(fresh()))
		if err != nil {
			t.Fatal(err)
		}
		lazy = slices.Clone(lazy)
		o := shape(fresh())
		hop, err := runner.RunHop(Presort(n, o), m, rounds, o)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(hop, naive) || !slices.Equal(lazy, naive) {
			t.Fatalf("trial %d: classes %v caps %v dist %v Q %v: RunHop %v, Run %v, NaiveGreedy %v",
				trial, base.class, base.caps, m.Dist, m.Q, hop, lazy, naive)
		}

		hidden := fresh()
		without, err := runner.RunHop(Presort(n, hidden), m, rounds, struct {
			Oracle
			Bounder
		}{hidden, hidden})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(without, naive) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no trial selects differently with Rekey hidden; the instances never need a re-key")
	}
	t.Logf("%d of 3000 trials select differently with Rekey hidden", stale)
}

// hopCase is one greedy instance under a single hop-count matroid.
type hopCase struct {
	m       HopCount
	covers  [][]int
	caps    []int
	rounds  int
	variant int // 0: Gain only, 1: + Bound, 2: + Bound + RoundBound
	slack   int
}

// decodeHopCase builds an instance from arbitrary bytes (zero once they run
// out): up to 32 elements whose distances include Unreachable and values
// above hmax, Q vectors with zeros and non-monotone entries so the
// threshold binds at any depth, round-capped coverage gains, and each of
// the three oracle shapes.
func decodeHopCase(data []byte) hopCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 1 + next()%32
	hmax := next() % 4
	nItems := 1 + next()%24
	c := hopCase{
		m:      HopCount{Dist: make([]int, n), Q: make([]int, hmax+1)},
		covers: make([][]int, n),
	}
	for h := range c.m.Q {
		c.m.Q[h] = next() % (n/2 + 2)
	}
	for e := 0; e < n; e++ {
		if b := next(); b%7 == 0 {
			c.m.Dist[e] = Unreachable
		} else {
			c.m.Dist[e] = b % (hmax + 3)
		}
		mask := next() | next()<<8 | next()<<16
		for it := 0; it < nItems; it++ {
			if mask&(1<<it) != 0 {
				c.covers[e] = append(c.covers[e], it)
			}
		}
	}
	c.rounds = next() % (n + 2)
	c.caps = make([]int, c.rounds+1) // Bound reads caps[0] even with no rounds
	capacity := 1 + next()%8
	for r := range c.caps {
		c.caps[r] = capacity
		if capacity > 1 && next()%2 == 0 {
			capacity--
		}
	}
	c.variant = next() % 3
	c.slack = next() % 3
	return c
}

// oracle returns a fresh oracle of the case's shape.
func (c hopCase) oracle() Oracle {
	base := &capCoverOracle{covers: c.covers, caps: c.caps, covered: make([]bool, 24)}
	switch c.variant {
	case 1:
		return staticCapOracle{base}
	case 2:
		return dynCapOracle{staticCapOracle{base}, c.slack}
	}
	return base
}

// checkHopGreedy requires RunHop, Run and NaiveGreedy to select the same
// elements in the same order, and the selection to be M2-independent.
// runner is reused across calls, and across both entry points.
func checkHopGreedy(t *testing.T, c hopCase, runner *LazyRunner) {
	t.Helper()
	n := len(c.m.Dist)
	universe := make([]int, n)
	for e := range universe {
		universe[e] = e
	}
	naive, err := NaiveGreedy(universe, c.rounds, c.m.CanAdd, c.oracle())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(c.m.Q))
	feasible := func(sel []int, e int) bool { return c.m.CanAddInto(sel, e, counts) }
	lazy, err := runner.Run(universe, c.rounds, feasible, c.oracle())
	if err != nil {
		t.Fatal(err)
	}
	lazy = slices.Clone(lazy)
	o := c.oracle()
	hop, err := runner.RunHop(Presort(n, o), c.m, c.rounds, o)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hop, naive) || !slices.Equal(lazy, naive) {
		t.Fatalf("dist %v Q %v caps %v variant %d: RunHop %v, Run %v, NaiveGreedy %v",
			c.m.Dist, c.m.Q, c.caps, c.variant, hop, lazy, naive)
	}
	if !c.m.Independent(hop) {
		t.Fatalf("dist %v Q %v: selection %v is not M2-independent", c.m.Dist, c.m.Q, hop)
	}
}

// TestRunHopMatchesRunAndNaive is the equivalence the subset evaluation's
// byte identity rests on, over random hop-count instances: binding Q,
// Unreachable and beyond-hmax distances, and oracles with no bounds, static
// bounds only, and static plus dynamic bounds.
func TestRunHopMatchesRunAndNaive(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(41))
	var runner LazyRunner
	data := make([]byte, 160)
	for trial := 0; trial < 3000; trial++ {
		r.Read(data)
		checkHopGreedy(t, decodeHopCase(data), &runner)
	}
}

// FuzzHopGreedy is TestRunHopMatchesRunAndNaive over fuzzer-chosen
// instances.
func FuzzHopGreedy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{31, 3, 23, 9, 2, 1, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("the threshold binds after the third commit"))
	var runner LazyRunner
	f.Fuzz(func(t *testing.T, data []byte) {
		checkHopGreedy(t, decodeHopCase(data), &runner)
	})
}

// TestHopLimitMatchesCanAddInto checks Limit's threshold form against the
// counting feasibility test on random sets (independent or not), distances
// and Q vectors: e is addable exactly when Dist[e] is reachable and within
// the limit of the set's threshold counts.
func TestHopLimitMatchesCanAddInto(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(16)
		hmax := r.Intn(5)
		m := HopCount{Dist: make([]int, n), Q: make([]int, hmax+1)}
		for e := range m.Dist {
			m.Dist[e] = r.Intn(hmax+3) - 1 // Unreachable up to hmax+1
		}
		for h := range m.Q {
			m.Q[h] = r.Intn(n + 1)
		}
		var set []int
		for e := 0; e < n; e++ {
			if r.Intn(3) == 0 {
				set = append(set, e)
			}
		}
		counts := make([]int, len(m.Q))
		for _, x := range set {
			for h := 0; h <= min(m.Dist[x], m.HMax()); h++ {
				counts[h]++
			}
		}
		limit := m.Limit(counts)
		buf := make([]int, len(m.Q))
		for e := 0; e < n; e++ {
			want := m.CanAddInto(set, e, buf)
			if got := m.Dist[e] != Unreachable && m.Dist[e] <= limit; got != want {
				t.Fatalf("dist %v Q %v set %v: element %d within limit %d = %v, CanAddInto = %v",
					m.Dist, m.Q, set, e, limit, got, want)
			}
		}
	}
}

func TestRunHopErrors(t *testing.T) {
	t.Parallel()
	var runner LazyRunner
	o := &capCoverOracle{covers: [][]int{{0}, {1}}, caps: []int{1}, covered: make([]bool, 2)}
	m := HopCount{Dist: []int{0, 1}, Q: []int{2, 1}}
	if _, err := runner.RunHop(Presort(2, o), m, -1, o); err == nil {
		t.Error("negative rounds should fail")
	}
	if _, err := runner.RunHop(Presort(3, o), m, 1, o); err == nil {
		t.Error("a presort over another universe should fail")
	}
	sel, err := runner.RunHop(Presort(2, o), m, 1, o)
	if err != nil || !slices.Equal(sel, []int{0}) {
		t.Errorf("selection after failed runs = %v (err %v), want [0]", sel, err)
	}
}
