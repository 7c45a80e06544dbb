package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomConnectedGraph builds a random graph on n nodes: a random spanning
// tree plus extra random edges, so every node pair is reachable.
func randomConnectedGraph(t *testing.T, r *rand.Rand, n, extra int) *Undirected {
	t.Helper()
	g := New(n)
	perm := r.Perm(n)
	for i := 1; i < n; i++ {
		if err := g.AddEdge(perm[i], perm[r.Intn(i)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestPathOracleMatchesShortestPath is the byte-identity property the
// optimized subset evaluation rests on: for every (src, dst) pair the oracle
// must reproduce ShortestPath's exact node sequence, not merely a path of
// the same length.
func TestPathOracleMatchesShortestPath(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(14)
		g := randomConnectedGraph(t, r, n, r.Intn(2*n))
		o := NewPathOracle(g)
		buf := make([]int, 0, n)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				want := g.ShortestPath(src, dst)
				got := o.PathInto(src, dst, buf)
				if !reflect.DeepEqual(append([]int(nil), got...), want) {
					t.Fatalf("trial %d: PathInto(%d,%d) = %v, ShortestPath = %v", trial, src, dst, got, want)
				}
				if o.Hop(src, dst) != len(want)-1 {
					t.Fatalf("trial %d: Hop(%d,%d) = %d, path length %d", trial, src, dst, o.Hop(src, dst), len(want)-1)
				}
			}
		}
	}
}

func TestPathOracleDisconnected(t *testing.T) {
	t.Parallel()
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	o := NewPathOracle(g)
	if p := o.PathInto(0, 2, nil); p != nil {
		t.Errorf("PathInto across components = %v, want nil", p)
	}
	if d := o.Hop(1, 3); d != Unreachable {
		t.Errorf("Hop across components = %d, want Unreachable", d)
	}
	if got, want := o.DistRow(0), g.BFS(0); !reflect.DeepEqual(got, want) {
		t.Errorf("DistRow(0) = %v, BFS = %v", got, want)
	}
}

// TestMultiSourceBFSIntoMatches checks the scratch variant against the
// allocating one, including reuse of the same buffers across calls.
func TestMultiSourceBFSIntoMatches(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(20)
		g := randomConnectedGraph(t, r, n, r.Intn(n))
		dist := make([]int, n)
		var queue []int
		for rep := 0; rep < 3; rep++ {
			var sources []int
			for len(sources) == 0 {
				for v := 0; v < n; v++ {
					if r.Intn(3) == 0 {
						sources = append(sources, v)
					}
				}
			}
			queue = g.MultiSourceBFSInto(sources, dist, queue)
			if want := g.MultiSourceBFS(sources); !reflect.DeepEqual(dist, want) {
				t.Fatalf("trial %d: BFSInto = %v, BFS = %v", trial, dist, want)
			}
		}
	}
}

// TestMultiSourceDistIntoMatchesBFS checks the row-minimum identity the
// subset evaluation reads M2 distances from: the element-wise minimum of the
// sources' distance rows, skipping Unreachable, is the multi-source BFS
// distance. Half the graphs are random edge sets with no spanning tree, so
// components and Unreachable entries are common; source lists repeat nodes
// and may be empty, and the output buffer is reused dirty across calls.
func TestMultiSourceDistIntoMatchesBFS(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(24)
		var g *Undirected
		if trial%2 == 0 {
			g = randomConnectedGraph(t, r, n, r.Intn(2*n))
		} else {
			g = New(n)
			for i := r.Intn(n + 1); i > 0; i-- {
				u, v := r.Intn(n), r.Intn(n)
				if u == v || g.HasEdge(u, v) {
					continue
				}
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		o := NewPathOracle(g)
		dist := make([]int, n)
		for rep := 0; rep < 4; rep++ {
			sources := make([]int, r.Intn(4))
			for i := range sources {
				sources[i] = r.Intn(n)
			}
			if len(sources) > 0 && r.Intn(2) == 0 {
				sources = append(sources, sources[0])
			}
			o.MultiSourceDistInto(sources, dist)
			if want := g.MultiSourceBFS(sources); !reflect.DeepEqual(dist, want) {
				t.Fatalf("trial %d: sources %v: row minimum %v, BFS %v", trial, sources, dist, want)
			}
		}
	}
}

// TestShortestPathIntoMatches checks the scratch path variant, including the
// src == dst singleton path.
func TestShortestPathIntoMatches(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(23))
	g := randomConnectedGraph(t, r, 12, 8)
	prev := make([]int, g.N())
	var queue, path []int
	for src := 0; src < g.N(); src++ {
		for dst := 0; dst < g.N(); dst++ {
			got := g.ShortestPathInto(src, dst, prev, queue, path)
			want := g.ShortestPath(src, dst)
			if !reflect.DeepEqual(append([]int(nil), got...), want) {
				t.Fatalf("ShortestPathInto(%d,%d) = %v, want %v", src, dst, got, want)
			}
			path = got[:0]
		}
	}
}

// TestMSTScratchMatchesMST runs the scratch Kruskal against the allocating
// one over random weighted graphs, reusing one scratch throughout.
func TestMSTScratchMatchesMST(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(29))
	var scratch MSTScratch
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(10)
		var edges []WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if u+1 == v || r.Intn(2) == 0 { // path edges keep it connected
					edges = append(edges, WeightedEdge{U: u, V: v, Weight: float64(1 + r.Intn(9))})
				}
			}
		}
		wantTree, wantTotal, wantErr := MST(n, append([]WeightedEdge(nil), edges...))
		gotTree, gotTotal, gotErr := scratch.MST(n, edges)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if gotTotal != wantTotal || !reflect.DeepEqual(gotTree, wantTree) {
			t.Fatalf("trial %d: scratch MST (%v, %g) != MST (%v, %g)", trial, gotTree, gotTotal, wantTree, wantTotal)
		}
	}
}

// TestMSTScratchCompleteHopMST checks the hop-matrix MST against
// CompleteHopMST's per-terminal BFS construction.
func TestMSTScratchCompleteHopMST(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(31))
	var scratch MSTScratch
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(12)
		g := randomConnectedGraph(t, r, n, r.Intn(n))
		hop := make([][]int, n)
		for v := 0; v < n; v++ {
			hop[v] = g.BFS(v)
		}
		k := 2 + r.Intn(n-2)
		terminals := r.Perm(n)[:k]
		wantTree, wantTotal, err := CompleteHopMST(g, terminals)
		if err != nil {
			t.Fatal(err)
		}
		gotTree, gotTotal, err := scratch.CompleteHopMST(hop, terminals)
		if err != nil {
			t.Fatal(err)
		}
		if gotTotal != wantTotal || !reflect.DeepEqual(gotTree, wantTree) {
			t.Fatalf("trial %d: matrix MST (%v, %g) != BFS MST (%v, %g)", trial, gotTree, gotTotal, wantTree, wantTotal)
		}
	}
}

func TestUnionFindReset(t *testing.T) {
	t.Parallel()
	uf := NewUnionFind(4)
	uf.Union(0, 1)
	uf.Union(2, 3)
	if uf.Sets() != 2 {
		t.Fatalf("Sets = %d, want 2", uf.Sets())
	}
	uf.Reset(6) // grow
	if uf.Sets() != 6 {
		t.Fatalf("after Reset(6): Sets = %d, want 6", uf.Sets())
	}
	if uf.Same(0, 1) {
		t.Error("Reset kept old union of 0 and 1")
	}
	uf.Union(4, 5)
	uf.Reset(3) // shrink
	if uf.Sets() != 3 {
		t.Fatalf("after Reset(3): Sets = %d, want 3", uf.Sets())
	}
	for v := 0; v < 3; v++ {
		if uf.Find(v) != v {
			t.Errorf("after Reset(3): Find(%d) = %d, want singleton", v, uf.Find(v))
		}
	}
}
