package flow

import (
	"math/rand"
	"testing"
)

func mustEdge(t *testing.T, nw *Network, u, v, c int) int {
	t.Helper()
	h, err := nw.AddEdge(u, v, c)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%d): %v", u, v, c, err)
	}
	return h
}

func mustFlow(t *testing.T, nw *Network, s, tt int) int {
	t.Helper()
	f, err := nw.MaxFlow(s, tt)
	if err != nil {
		t.Fatalf("MaxFlow: %v", err)
	}
	return f
}

func TestMaxFlowSingleEdge(t *testing.T) {
	t.Parallel()
	nw := NewNetwork(2)
	h := mustEdge(t, nw, 0, 1, 7)
	if f := mustFlow(t, nw, 0, 1); f != 7 {
		t.Errorf("flow = %d, want 7", f)
	}
	if nw.Flow(h) != 7 {
		t.Errorf("edge flow = %d, want 7", nw.Flow(h))
	}
}

func TestMaxFlowClassic(t *testing.T) {
	t.Parallel()
	// CLRS-style example.
	nw := NewNetwork(6)
	mustEdge(t, nw, 0, 1, 16)
	mustEdge(t, nw, 0, 2, 13)
	mustEdge(t, nw, 1, 3, 12)
	mustEdge(t, nw, 2, 1, 4)
	mustEdge(t, nw, 3, 2, 9)
	mustEdge(t, nw, 2, 4, 14)
	mustEdge(t, nw, 4, 3, 7)
	mustEdge(t, nw, 3, 5, 20)
	mustEdge(t, nw, 4, 5, 4)
	if f := mustFlow(t, nw, 0, 5); f != 23 {
		t.Errorf("flow = %d, want 23", f)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	t.Parallel()
	nw := NewNetwork(4)
	mustEdge(t, nw, 0, 1, 5)
	mustEdge(t, nw, 2, 3, 5)
	if f := mustFlow(t, nw, 0, 3); f != 0 {
		t.Errorf("flow = %d, want 0", f)
	}
}

func TestMaxFlowBipartiteMatching(t *testing.T) {
	t.Parallel()
	// 3 users, 2 UAVs with capacities 1 and 2; user 0 -> uav A, users 1,2 -> uav B.
	// s=0, users 1..3, uavs 4..5, t=6.
	nw := NewNetwork(7)
	for u := 1; u <= 3; u++ {
		mustEdge(t, nw, 0, u, 1)
	}
	mustEdge(t, nw, 1, 4, 1)
	mustEdge(t, nw, 2, 5, 1)
	mustEdge(t, nw, 3, 5, 1)
	mustEdge(t, nw, 4, 6, 1)
	mustEdge(t, nw, 5, 6, 2)
	if f := mustFlow(t, nw, 0, 6); f != 3 {
		t.Errorf("flow = %d, want 3", f)
	}
}

func TestMaxFlowCapacityZero(t *testing.T) {
	t.Parallel()
	nw := NewNetwork(2)
	mustEdge(t, nw, 0, 1, 0)
	if f := mustFlow(t, nw, 0, 1); f != 0 {
		t.Errorf("flow = %d, want 0", f)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	t.Parallel()
	nw := NewNetwork(2)
	if _, err := nw.AddEdge(0, 0, 1); err == nil {
		t.Error("self loop should fail")
	}
	if _, err := nw.AddEdge(0, 5, 1); err == nil {
		t.Error("out of range should fail")
	}
	if _, err := nw.AddEdge(0, 1, -1); err == nil {
		t.Error("negative capacity should fail")
	}
}

func TestMaxFlowErrors(t *testing.T) {
	t.Parallel()
	nw := NewNetwork(2)
	if _, err := nw.MaxFlow(0, 0); err == nil {
		t.Error("s == t should fail")
	}
	if _, err := nw.MaxFlow(-1, 1); err == nil {
		t.Error("out of range should fail")
	}
}

func TestIncrementalAugmentation(t *testing.T) {
	t.Parallel()
	// Max flow, then widen the bottleneck with a parallel edge and
	// re-augment: the two calls must sum to the max flow of the final
	// network.
	nw := NewNetwork(3)
	mustEdge(t, nw, 0, 1, 2)
	mustEdge(t, nw, 1, 2, 10)
	if f := mustFlow(t, nw, 0, 2); f != 2 {
		t.Fatalf("first flow = %d, want 2", f)
	}
	mustEdge(t, nw, 0, 1, 5)
	if f := mustFlow(t, nw, 0, 2); f != 5 {
		t.Errorf("incremental flow = %d, want 5", f)
	}
}

// --- randomized properties ------------------------------------------------

type rawEdge struct{ u, v, c int }

// buildRandom builds a random DAG-ish network with source 0 and sink n-1.
func buildRandom(r *rand.Rand) (int, []rawEdge) {
	n := 4 + r.Intn(8)
	var es []rawEdge
	for i := 0; i < n*3; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		es = append(es, rawEdge{u, v, r.Intn(10)})
	}
	return n, es
}

// bruteMaxFlow computes max flow by repeated DFS augmentation on an
// adjacency-matrix residual graph (Ford-Fulkerson with unit-step search),
// an independent oracle implementation.
func bruteMaxFlow(n int, es []rawEdge, s, t int) int {
	res := make([][]int, n)
	for i := range res {
		res[i] = make([]int, n)
	}
	for _, e := range es {
		res[e.u][e.v] += e.c
	}
	total := 0
	for {
		// BFS for an augmenting path.
		prev := make([]int, n)
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = s
		queue := []int{s}
		for head := 0; head < len(queue) && prev[t] == -1; head++ {
			u := queue[head]
			for v := 0; v < n; v++ {
				if res[u][v] > 0 && prev[v] == -1 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		if prev[t] == -1 {
			return total
		}
		bottleneck := int(^uint(0) >> 1)
		for v := t; v != s; v = prev[v] {
			if res[prev[v]][v] < bottleneck {
				bottleneck = res[prev[v]][v]
			}
		}
		for v := t; v != s; v = prev[v] {
			res[prev[v]][v] -= bottleneck
			res[v][prev[v]] += bottleneck
		}
		total += bottleneck
	}
}

func TestMaxFlowAgainstBruteForceProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 150; trial++ {
		n, es := buildRandom(r)
		nw := NewNetwork(n)
		for _, e := range es {
			mustEdge(t, nw, e.u, e.v, e.c)
		}
		got := mustFlow(t, nw, 0, n-1)
		want := bruteMaxFlow(n, es, 0, n-1)
		if got != want {
			t.Fatalf("trial %d: Dinic %d != oracle %d (n=%d es=%v)", trial, got, want, n, es)
		}
	}
}

// MinCutReachable returns the set of nodes reachable from s in the residual
// network after a MaxFlow call; the cut edges go from this set to its
// complement, which certifies max-flow = min-cut.
func (nw *Network) MinCutReachable(s int) []bool {
	seen := make([]bool, nw.n)
	seen[s] = true
	queue := []int{s}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, h := range nw.head[u] {
			e := nw.edges[h]
			if e.cap > 0 && !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return seen
}

func TestMinCutEqualsMaxFlowProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 100; trial++ {
		n, es := buildRandom(r)
		nw := NewNetwork(n)
		var handles []rawEdge
		for _, e := range es {
			mustEdge(t, nw, e.u, e.v, e.c)
			handles = append(handles, e)
		}
		f := mustFlow(t, nw, 0, n-1)
		reach := nw.MinCutReachable(0)
		if reach[n-1] {
			t.Fatalf("trial %d: sink reachable after max flow", trial)
		}
		cut := 0
		for _, e := range handles {
			if reach[e.u] && !reach[e.v] {
				cut += e.c
			}
		}
		if cut != f {
			t.Fatalf("trial %d: min cut %d != max flow %d", trial, cut, f)
		}
	}
}

func TestFlowConservationProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(555))
	for trial := 0; trial < 100; trial++ {
		n, es := buildRandom(r)
		nw := NewNetwork(n)
		hs := make([]int, len(es))
		for i, e := range es {
			hs[i] = mustEdge(t, nw, e.u, e.v, e.c)
		}
		f := mustFlow(t, nw, 0, n-1)
		net := make([]int, n) // net outflow per node
		for i, e := range es {
			fl := nw.Flow(hs[i])
			if fl < 0 || fl > e.c {
				t.Fatalf("trial %d: edge flow %d outside [0,%d]", trial, fl, e.c)
			}
			net[e.u] += fl
			net[e.v] -= fl
		}
		for v := 0; v < n; v++ {
			switch v {
			case 0:
				if net[v] != f {
					t.Fatalf("trial %d: source net outflow %d != flow %d", trial, net[v], f)
				}
			case n - 1:
				if net[v] != -f {
					t.Fatalf("trial %d: sink net outflow %d != -flow %d", trial, net[v], f)
				}
			default:
				if net[v] != 0 {
					t.Fatalf("trial %d: node %d violates conservation (%d)", trial, v, net[v])
				}
			}
		}
	}
}

func TestIncrementalEqualsFromScratchProperty(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(777))
	for trial := 0; trial < 80; trial++ {
		n, es := buildRandom(r)
		nw := NewNetwork(n)
		for _, e := range es {
			mustEdge(t, nw, e.u, e.v, e.c)
		}
		f1 := mustFlow(t, nw, 0, n-1)
		// Raise some capacities with parallel edges and re-augment.
		for i, e := range es {
			if r.Intn(3) == 0 {
				delta := r.Intn(5)
				es[i].c += delta
				mustEdge(t, nw, e.u, e.v, delta)
			}
		}
		f2 := mustFlow(t, nw, 0, n-1)
		want := bruteMaxFlow(n, es, 0, n-1)
		if f1+f2 != want {
			t.Fatalf("trial %d: incremental %d+%d != oracle %d", trial, f1, f2, want)
		}
	}
}
