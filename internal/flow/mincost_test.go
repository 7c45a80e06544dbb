package flow

import (
	"math/rand"
	"testing"
)

func mustCostEdge(t *testing.T, cn *CostNetwork, u, v, c int, cost int64) int {
	t.Helper()
	h, err := cn.AddEdge(u, v, c, cost)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%d,%d): %v", u, v, c, cost, err)
	}
	return h
}

// HasNegativeResidualCycle reports whether the residual network contains a
// negative-cost cycle — the optimality certificate for min-cost flows (a
// max flow is cost-minimal iff none exists).
func (cn *CostNetwork) HasNegativeResidualCycle() bool {
	dist := make([]int64, cn.n)
	// Bellman-Ford from a virtual super-source (all distances start 0).
	for iter := 0; iter < cn.n; iter++ {
		improved := false
		for u := 0; u < cn.n; u++ {
			for _, h := range cn.head[u] {
				if cn.capArr[h] <= 0 {
					continue
				}
				v := cn.toArr[h]
				if nd := dist[u] + cn.cost[h]; nd < dist[v] {
					dist[v] = nd
					improved = true
				}
			}
		}
		if !improved {
			return false
		}
	}
	return true
}

func TestMinCostSingleEdge(t *testing.T) {
	t.Parallel()
	cn := NewCostNetwork(2)
	mustCostEdge(t, cn, 0, 1, 5, 3)
	f, c, err := cn.MinCostMaxFlow(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f != 5 || c != 15 {
		t.Errorf("flow=%d cost=%d, want 5, 15", f, c)
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	t.Parallel()
	// Two parallel routes 0->1->3 (cost 1+1) and 0->2->3 (cost 5+5), each
	// capacity 1. One unit must take the cheap route.
	cn := NewCostNetwork(4)
	mustCostEdge(t, cn, 0, 1, 1, 1)
	mustCostEdge(t, cn, 1, 3, 1, 1)
	mustCostEdge(t, cn, 0, 2, 1, 5)
	mustCostEdge(t, cn, 2, 3, 1, 5)
	f, c, err := cn.MinCostMaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 || c != 12 {
		t.Errorf("flow=%d cost=%d, want 2, 12 (2 + 10)", f, c)
	}
}

func TestMinCostReroutesThroughResidual(t *testing.T) {
	t.Parallel()
	// Classic rerouting: the greedy-cheapest first path must be partially
	// undone to reach maximum flow at minimum cost.
	cn := NewCostNetwork(4)
	mustCostEdge(t, cn, 0, 1, 1, 1)
	mustCostEdge(t, cn, 0, 2, 1, 4)
	mustCostEdge(t, cn, 1, 2, 1, 1)
	mustCostEdge(t, cn, 1, 3, 1, 6)
	mustCostEdge(t, cn, 2, 3, 1, 1)
	f, c, err := cn.MinCostMaxFlow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f != 2 {
		t.Fatalf("flow=%d, want 2", f)
	}
	// Optimal: 0-1-2-3 (cost 3) + 0-2... capacity of 2->3 is 1, so optimum
	// is 0-1-3 (7) + 0-2-3 (5) = 12 vs 0-1-2-3 (3) + 0-2?-... check: only
	// max flows matter; min cost max flow = 12? Routes: two units must both
	// reach 3; arcs into 3: 1->3 (cap 1) and 2->3 (cap 1). So one unit per
	// arc: unit A 0-1-3: 1+6=7; unit B 0-2-3: 4+1=5; total 12. Alternative
	// unit B 0-1-2-3 impossible (0-1 saturated). So 12.
	if c != 12 {
		t.Errorf("cost=%d, want 12", c)
	}
	if cn.HasNegativeResidualCycle() {
		t.Error("optimal flow has a negative residual cycle")
	}
}

func TestMinCostErrors(t *testing.T) {
	t.Parallel()
	cn := NewCostNetwork(2)
	if _, err := cn.AddEdge(0, 0, 1, 1); err == nil {
		t.Error("self loop should fail")
	}
	if _, err := cn.AddEdge(0, 5, 1, 1); err == nil {
		t.Error("out of range should fail")
	}
	if _, err := cn.AddEdge(0, 1, -1, 1); err == nil {
		t.Error("negative capacity should fail")
	}
	if _, err := cn.AddEdge(0, 1, 1, -1); err == nil {
		t.Error("negative cost should fail")
	}
	if _, _, err := cn.MinCostMaxFlow(0, 0); err == nil {
		t.Error("s == t should fail")
	}
	if _, _, err := cn.MinCostMaxFlow(-1, 1); err == nil {
		t.Error("bad source should fail")
	}
}

func TestMinCostFlowValueMatchesDinicProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n, es := buildRandom(r)
		cn := NewCostNetwork(n)
		nw := NewNetwork(n)
		for _, e := range es {
			mustCostEdge(t, cn, e.u, e.v, e.c, int64(r.Intn(10)))
			mustEdge(t, nw, e.u, e.v, e.c)
		}
		f, _, err := cn.MinCostMaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		want := mustFlow(t, nw, 0, n-1)
		if f != want {
			t.Fatalf("trial %d: min-cost flow value %d != Dinic %d", trial, f, want)
		}
	}
}

func TestMinCostOptimalityCertificateProperty(t *testing.T) {
	t.Parallel()
	// After MinCostMaxFlow, the residual graph must contain no negative
	// cycle: the canonical optimality condition.
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		n, es := buildRandom(r)
		cn := NewCostNetwork(n)
		for _, e := range es {
			mustCostEdge(t, cn, e.u, e.v, e.c, int64(r.Intn(20)))
		}
		if _, _, err := cn.MinCostMaxFlow(0, n-1); err != nil {
			t.Fatal(err)
		}
		if cn.HasNegativeResidualCycle() {
			t.Fatalf("trial %d: negative residual cycle after min-cost max flow", trial)
		}
	}
}

func TestMinCostFlowConservationProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n, es := buildRandom(r)
		cn := NewCostNetwork(n)
		hs := make([]int, len(es))
		for i, e := range es {
			hs[i] = mustCostEdge(t, cn, e.u, e.v, e.c, int64(r.Intn(9)))
		}
		f, reported, err := cn.MinCostMaxFlow(0, n-1)
		if err != nil {
			t.Fatal(err)
		}
		net := make([]int, n)
		var cost int64
		for i, e := range es {
			fl := cn.Flow(hs[i])
			if fl < 0 || fl > e.c {
				t.Fatalf("trial %d: edge flow %d outside [0,%d]", trial, fl, e.c)
			}
			net[e.u] += fl
			net[e.v] -= fl
			cost += int64(fl) * int64(r.Int()) * 0 // placeholder: cost recomputed below
		}
		_ = cost
		// Recompute cost from flows and the original costs.
		var cost2 int64
		for i := range es {
			cost2 += int64(cn.Flow(hs[i])) * cn.cost[hs[i]]
		}
		if cost2 != reported {
			t.Fatalf("trial %d: reported cost %d != recomputed %d", trial, reported, cost2)
		}
		for v := 0; v < n; v++ {
			switch v {
			case 0:
				if net[v] != f {
					t.Fatalf("trial %d: source imbalance", trial)
				}
			case n - 1:
				if net[v] != -f {
					t.Fatalf("trial %d: sink imbalance", trial)
				}
			default:
				if net[v] != 0 {
					t.Fatalf("trial %d: node %d imbalance", trial, v)
				}
			}
		}
	}
}
