package graph

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMSTTriangle(t *testing.T) {
	edges := []WeightedEdge{
		{0, 1, 1}, {1, 2, 2}, {0, 2, 3},
	}
	tree, total, err := MST(3, edges)
	if err != nil {
		t.Fatalf("MST: %v", err)
	}
	if len(tree) != 2 || total != 3 {
		t.Errorf("MST = %v total %g, want 2 edges total 3", tree, total)
	}
}

func TestMSTDisconnected(t *testing.T) {
	if _, _, err := MST(4, []WeightedEdge{{0, 1, 1}, {2, 3, 1}}); err == nil {
		t.Error("MST of disconnected graph should fail")
	}
}

func TestMSTOutOfRange(t *testing.T) {
	if _, _, err := MST(2, []WeightedEdge{{0, 5, 1}}); err == nil {
		t.Error("MST with out-of-range edge should fail")
	}
}

func TestMSTEmptyAndSingleton(t *testing.T) {
	if tree, total, err := MST(0, nil); err != nil || len(tree) != 0 || total != 0 {
		t.Errorf("MST(0) = %v %g %v", tree, total, err)
	}
	if tree, total, err := MST(1, nil); err != nil || len(tree) != 0 || total != 0 {
		t.Errorf("MST(1) = %v %g %v", tree, total, err)
	}
}

func TestMSTDeterministicTieBreak(t *testing.T) {
	edges := []WeightedEdge{{1, 2, 1}, {0, 1, 1}, {0, 2, 1}}
	t1, _, err := MST(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Re-run with the same logical edge set in another order.
	edges2 := []WeightedEdge{{0, 2, 1}, {1, 2, 1}, {0, 1, 1}}
	t2, _, err := MST(3, edges2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Errorf("MST not deterministic: %v vs %v", t1, t2)
		}
	}
}

// naiveMSTWeight computes the MST weight by Prim's algorithm on an adjacency
// matrix, as an independent oracle.
func naiveMSTWeight(n int, edges []WeightedEdge) float64 {
	const inf = math.MaxFloat64
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = inf
		}
	}
	for _, e := range edges {
		if e.Weight < w[e.U][e.V] {
			w[e.U][e.V] = e.Weight
			w[e.V][e.U] = e.Weight
		}
	}
	in := make([]bool, n)
	best := make([]float64, n)
	for i := range best {
		best[i] = inf
	}
	best[0] = 0
	total := 0.0
	for it := 0; it < n; it++ {
		u := -1
		for v := 0; v < n; v++ {
			if !in[v] && (u == -1 || best[v] < best[u]) {
				u = v
			}
		}
		in[u] = true
		total += best[u]
		for v := 0; v < n; v++ {
			if !in[v] && w[u][v] < best[v] {
				best[v] = w[u][v]
			}
		}
	}
	return total
}

func TestMSTAgainstPrimProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(12)
		var edges []WeightedEdge
		// Ensure connectivity with a random spanning path, then extras.
		perm := r.Perm(n)
		for i := 0; i+1 < n; i++ {
			edges = append(edges, WeightedEdge{perm[i], perm[i+1], float64(1 + r.Intn(20))})
		}
		for e := 0; e < n; e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				edges = append(edges, WeightedEdge{u, v, float64(1 + r.Intn(20))})
			}
		}
		_, total, err := MST(n, edges)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := naiveMSTWeight(n, edges); math.Abs(total-want) > 1e-9 {
			t.Fatalf("trial %d: Kruskal %g != Prim %g", trial, total, want)
		}
	}
}

func TestCompleteHopMST(t *testing.T) {
	// 1x5 line graph; terminals 0, 2, 4 -> MST hop weight 2+2 = 4.
	g := lineGraph(t, 5)
	tree, total, err := CompleteHopMST(g, []int{0, 2, 4})
	if err != nil {
		t.Fatalf("CompleteHopMST: %v", err)
	}
	if total != 4 || len(tree) != 2 {
		t.Errorf("total = %g edges %v, want total 4 with 2 edges", total, tree)
	}
}

func TestCompleteHopMSTSingleton(t *testing.T) {
	g := lineGraph(t, 3)
	tree, total, err := CompleteHopMST(g, []int{1})
	if err != nil || tree != nil || total != 0 {
		t.Errorf("singleton = %v %g %v", tree, total, err)
	}
}

func TestCompleteHopMSTDisconnected(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 3)
	if _, _, err := CompleteHopMST(g, []int{0, 3}); err == nil {
		t.Error("disconnected terminals should fail")
	}
}

// MST computes a minimum spanning tree of the weighted graph on n nodes given
// by edges, using Kruskal's algorithm. It returns the chosen edges and their
// total weight. Edge order among equal weights is broken deterministically by
// (Weight, U, V), so results are reproducible.
//
// It returns an error if the edges do not connect all n nodes.
func MST(n int, edges []WeightedEdge) ([]WeightedEdge, float64, error) {
	if n <= 0 {
		return nil, 0, nil
	}
	sorted := make([]WeightedEdge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Weight != b.Weight {
			return a.Weight < b.Weight
		}
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	uf := NewUnionFind(n)
	tree := make([]WeightedEdge, 0, n-1)
	var total float64
	for _, e := range sorted {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, 0, fmt.Errorf("graph: MST edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if uf.Union(e.U, e.V) {
			tree = append(tree, e)
			total += e.Weight
			if len(tree) == n-1 {
				break
			}
		}
	}
	if len(tree) != n-1 {
		return nil, 0, fmt.Errorf("graph: MST input on %d nodes is disconnected (%d components)", n, uf.Sets())
	}
	return tree, total, nil
}

// CompleteHopMST builds the complete weighted graph over the given terminal
// nodes of g, where the weight of (t_i, t_j) is their hop distance in g, and
// returns its MST edges expressed in *terminal indices* (0..len(terminals)-1)
// together with the total hop weight.
//
// This is exactly the G'_j / T'_j construction of Algorithm 2 (lines 13-14).
// It returns an error if some pair of terminals is disconnected in g.
func CompleteHopMST(g *Undirected, terminals []int) ([]WeightedEdge, float64, error) {
	k := len(terminals)
	if k <= 1 {
		return nil, 0, nil
	}
	edges := make([]WeightedEdge, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		dist := g.BFS(terminals[i])
		for j := i + 1; j < k; j++ {
			d := dist[terminals[j]]
			if d == Unreachable {
				return nil, 0, fmt.Errorf("graph: terminals %d and %d are disconnected", terminals[i], terminals[j])
			}
			edges = append(edges, WeightedEdge{U: i, V: j, Weight: float64(d)})
		}
	}
	return MST(k, edges)
}
