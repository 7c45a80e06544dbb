package match

import (
	"math/rand"
	"testing"
)

// problem is a local copy of the assign.Problem shape: station capacities
// plus sorted eligibility lists over numUsers users.
type problem struct {
	numUsers int
	caps     []int
	elig     [][]int
}

// randomProblem draws a small random instance with sorted, duplicate-free
// eligibility lists (the invariant Instance.Eligible guarantees).
func randomProblem(r *rand.Rand) problem {
	p := problem{numUsers: 1 + r.Intn(9)}
	k := 1 + r.Intn(4)
	for j := 0; j < k; j++ {
		p.caps = append(p.caps, r.Intn(5))
		var el []int
		for u := 0; u < p.numUsers; u++ {
			if r.Intn(2) == 0 {
				el = append(el, u)
			}
		}
		p.elig = append(p.elig, el)
	}
	return p
}

// bruteServed exhaustively maximizes served users by trying, user by user,
// every eligible station with remaining capacity — an independent oracle for
// the matcher's maximum-matching claim.
func bruteServed(p problem, user int, remaining []int) int {
	if user == p.numUsers {
		return 0
	}
	best := bruteServed(p, user+1, remaining)
	for j := range remaining {
		if remaining[j] == 0 {
			continue
		}
		eligible := false
		for _, u := range p.elig[j] {
			if u == user {
				eligible = true
				break
			}
		}
		if !eligible {
			continue
		}
		remaining[j]--
		if got := 1 + bruteServed(p, user+1, remaining); got > best {
			best = got
		}
		remaining[j]++
	}
	return best
}

// checkState verifies the matcher's committed bookkeeping: owners eligible,
// loads within capacity and consistent with Served.
func checkState(t *testing.T, m *Matcher, p problem, stations int) {
	t.Helper()
	loads := make([]int, stations)
	served := 0
	for u := 0; u < p.numUsers; u++ {
		k := m.Owner(u)
		if k == Unassigned {
			if !m.unserved.Has(u) {
				t.Errorf("user %d unserved but bit clear", u)
			}
			continue
		}
		if m.unserved.Has(u) {
			t.Errorf("user %d served but unserved bit set", u)
		}
		served++
		loads[k]++
		ok := false
		for _, e := range p.elig[k] {
			if e == u {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("user %d owned by station %d but not eligible", u, k)
		}
	}
	if served != m.Served() {
		t.Errorf("Served() = %d but %d users owned", m.Served(), served)
	}
	for k := 0; k < stations; k++ {
		if loads[k] != m.Load(k) {
			t.Errorf("Load(%d) = %d, counted %d", k, m.Load(k), loads[k])
		}
		if loads[k] > p.caps[k] {
			t.Errorf("station %d over capacity: %d > %d", k, loads[k], p.caps[k])
		}
	}
}

func TestMatcherSimple(t *testing.T) {
	t.Parallel()
	// Station 0 (cap 1) can serve users 0,1; station 1 (cap 2) users 1,2.
	m, err := NewMatcher(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := m.Commit(1, []int{0, 1}); err != nil || g != 1 {
		t.Fatalf("Commit station 0: g=%d err=%v, want 1", g, err)
	}
	if g, err := m.Commit(2, []int{1, 2}); err != nil || g != 2 {
		t.Fatalf("Commit station 1: g=%d err=%v, want 2", g, err)
	}
	if m.Served() != 3 || m.Stations() != 2 {
		t.Errorf("Served=%d Stations=%d, want 3, 2", m.Served(), m.Stations())
	}
}

// TestMatcherStealChain is the alternating-chain case the matcher exists
// for: the new station's only eligible user is already served, and the gain
// comes from its owner re-acquiring elsewhere.
func TestMatcherStealChain(t *testing.T) {
	t.Parallel()
	m, err := NewMatcher(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Station 0 (cap 1, eligible {0,1}) serves user 0 (list order).
	if g, _ := m.Commit(1, []int{0, 1}); g != 1 {
		t.Fatalf("station 0 gain %d, want 1", g)
	}
	// A station eligible only for user 0 still gains 1: it takes user 0 and
	// station 0 picks up user 1. The naive |eligible ∩ unserved| bound would
	// say 0 — the documented reason GainBound popcounts reach instead.
	if g, err := m.Gain(1, []int{0}); err != nil || g != 1 {
		t.Fatalf("steal-chain Gain = %d err=%v, want 1", g, err)
	}
	if b := m.GainBound(1, BitsetFromSorted(2, []int{0})); b < 1 {
		t.Fatalf("GainBound = %d, must be >= the true gain 1", b)
	}
}

func TestMatcherMatchesBruteForceProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(r)
		m, err := NewMatcher(p.numUsers, len(p.caps))
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.caps {
			// Gain must be side-effect-free and match the realized gain.
			g1, err := m.Gain(p.caps[j], p.elig[j])
			if err != nil {
				t.Fatal(err)
			}
			g2, err := m.Gain(p.caps[j], p.elig[j])
			if err != nil {
				t.Fatal(err)
			}
			if g1 != g2 {
				t.Fatalf("trial %d: Gain not idempotent: %d then %d", trial, g1, g2)
			}
			c, err := m.Commit(p.caps[j], p.elig[j])
			if err != nil {
				t.Fatal(err)
			}
			if c != g1 {
				t.Fatalf("trial %d: Commit gain %d != Gain %d", trial, c, g1)
			}
			// After each commit the matching over the committed prefix must
			// be maximum — the incremental invariant everything rests on.
			prefix := problem{numUsers: p.numUsers, caps: p.caps[:j+1], elig: p.elig[:j+1]}
			want := bruteServed(prefix, 0, append([]int(nil), prefix.caps...))
			if m.Served() != want {
				t.Fatalf("trial %d: after station %d served %d, optimum %d (p=%+v)",
					trial, j, m.Served(), want, p)
			}
			checkState(t, m, p, j+1)
		}
	}
}

func TestGainBoundSoundProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(r)
		m, err := NewMatcher(p.numUsers, len(p.caps)+1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.caps {
			if _, err := m.Commit(p.caps[j], p.elig[j]); err != nil {
				t.Fatal(err)
			}
		}
		// Probe random candidate stations: the popcount bound must never
		// fall below the exact gain, and never exceed the static bound.
		for probe := 0; probe < 10; probe++ {
			capacity := r.Intn(5)
			var el []int
			for u := 0; u < p.numUsers; u++ {
				if r.Intn(2) == 0 {
					el = append(el, u)
				}
			}
			bound := m.GainBound(capacity, BitsetFromSorted(p.numUsers, el))
			g, err := m.Gain(capacity, el)
			if err != nil {
				t.Fatal(err)
			}
			if bound < g {
				t.Fatalf("trial %d: GainBound %d < Gain %d (cap=%d elig=%v)",
					trial, bound, g, capacity, el)
			}
			if bound > capacity || bound > len(el) {
				t.Fatalf("trial %d: GainBound %d exceeds static bound min(%d,%d)",
					trial, bound, capacity, len(el))
			}
		}
	}
}

func TestMatcherResetReusable(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(5))
	m, err := NewMatcher(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(r)
		if p.numUsers > 10 || len(p.caps) > 4 {
			continue
		}
		if err := m.Reset(); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewMatcher(10, 4)
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.caps {
			gr, err := m.Commit(p.caps[j], p.elig[j])
			if err != nil {
				t.Fatal(err)
			}
			gf, err := fresh.Commit(p.caps[j], p.elig[j])
			if err != nil {
				t.Fatal(err)
			}
			if gr != gf {
				t.Fatalf("trial %d station %d: reset matcher gained %d, fresh %d", trial, j, gr, gf)
			}
		}
		if m.Served() != fresh.Served() {
			t.Fatalf("trial %d: reset served %d, fresh %d", trial, m.Served(), fresh.Served())
		}
	}
}

func TestMatcherErrors(t *testing.T) {
	t.Parallel()
	if _, err := NewMatcher(-1, 2); err == nil {
		t.Error("negative users should fail")
	}
	if _, err := NewMatcher(2, -1); err == nil {
		t.Error("negative slots should fail")
	}
	m, err := NewMatcher(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Gain(1, []int{7}); err == nil {
		t.Error("out-of-range eligible user should fail")
	}
	if _, err := m.Gain(-1, []int{0}); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := m.Commit(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Gain(1, []int{1}); err == nil {
		t.Error("Gain beyond maxSlots should fail")
	}
	if _, err := m.Commit(1, []int{1}); err == nil {
		t.Error("Commit beyond maxSlots should fail")
	}
}

func TestBitsetBasics(t *testing.T) {
	t.Parallel()
	b := NewBitset(70)
	b.Set(0)
	b.Set(63)
	b.Set(69)
	for i := 0; i < 70; i++ {
		want := i == 0 || i == 63 || i == 69
		if b.Has(i) != want {
			t.Errorf("Has(%d) = %v, want %v", i, b.Has(i), want)
		}
	}
	b.Clear(63)
	if b.Has(63) {
		t.Error("Clear(63) did not clear")
	}
	b.Fill(70)
	other := BitsetFromSorted(70, []int{1, 5, 64})
	if got := AndCount(b, other); got != 3 {
		t.Errorf("AndCount full ∩ {1,5,64} = %d, want 3", got)
	}
	var empty Bitset = NewBitset(70)
	if got := AndCount(empty, other); got != 0 {
		t.Errorf("AndCount empty = %d, want 0", got)
	}
	// Fill must not set bits at or above n.
	fresh := NewBitset(70)
	fresh.Fill(70)
	if got := AndCount(fresh, fresh); got != 70 {
		t.Errorf("Fill(70) set %d bits, want 70", got)
	}
}

// Stations returns the number of committed stations.
func (m *Matcher) Stations() int { return m.stations }

// Owner returns the committed station serving user u, or Unassigned.
func (m *Matcher) Owner(u int) int { return int(m.owner[u]) }

// Load returns the number of users served by committed station k.
func (m *Matcher) Load(k int) int { return m.load[k] }

// bruteReach returns the users an augmenting chain can enter through once
// the committed stations are in place: the unserved ones, and the served
// ones whose owner can reach an unserved user along an alternating chain
// (owner -> an eligible user it does not hold -> that user's owner -> ...).
// It searches from every station on its own, independently of
// recomputeReach's fixpoint.
func bruteReach(m *Matcher) []bool {
	sat := make([]bool, m.stations)
	for k := range sat {
		seen := make([]bool, m.stations)
		seen[k] = true
		stack := []int{k}
		for len(stack) > 0 && !sat[k] {
			j := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range m.elig[j] {
				o := int(m.owner[u])
				if o == Unassigned {
					sat[k] = true
					break
				}
				if o != j && !seen[o] {
					seen[o] = true
					stack = append(stack, o)
				}
			}
		}
	}
	reach := make([]bool, m.numUsers)
	for u, o := range m.owner {
		reach[u] = o == Unassigned || sat[o]
	}
	return reach
}

// TestReachExactProperty pins the reach set GainBound counts against to
// bruteReach after every Commit, reading it through GainBound the way the
// greedy's RoundBound does, so a commit that left a stale set behind fails
// here too. Before each commit it probes random candidate stations:
// GainBound must never fall below Gain.
func TestReachExactProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(91))
	for trial := 0; trial < 2000; trial++ {
		p := randomProblem(r)
		m, err := NewMatcher(p.numUsers, len(p.caps))
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.caps {
			for probe := 0; probe < 4; probe++ {
				capacity := r.Intn(5)
				var el []int
				for u := 0; u < p.numUsers; u++ {
					if r.Intn(2) == 0 {
						el = append(el, u)
					}
				}
				bound := m.GainBound(capacity, BitsetFromSorted(p.numUsers, el))
				g, err := m.Gain(capacity, el)
				if err != nil {
					t.Fatal(err)
				}
				if bound < g {
					t.Fatalf("trial %d, before commit %d: GainBound %d < Gain %d (cap=%d elig=%v p=%+v)",
						trial, j, bound, g, capacity, el, p)
				}
			}
			if _, err := m.Commit(p.caps[j], p.elig[j]); err != nil {
				t.Fatal(err)
			}
			m.GainBound(0, NewBitset(p.numUsers))
			for u, want := range bruteReach(m) {
				if m.reach.Has(u) != want {
					t.Fatalf("trial %d, after commit %d: user %d in reach = %v, want %v (p=%+v)",
						trial, j, u, m.reach.Has(u), want, p)
				}
			}
		}
	}
}
