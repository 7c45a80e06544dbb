package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// lineGraph returns the path graph 0-1-2-...-(n-1).
func lineGraph(t *testing.T, n int) *Undirected {
	t.Helper()
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return g
}

// gridGraph returns the rows x cols 4-neighbor grid graph.
func gridGraph(t *testing.T, rows, cols int) *Undirected {
	t.Helper()
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := g.AddEdge(id(r, c), id(r, c+1)); err != nil {
					t.Fatal(err)
				}
			}
			if r+1 < rows {
				if err := g.AddEdge(id(r, c), id(r+1, c)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatalf("AddEdge(0,1): %v", err)
	}
	tests := []struct {
		name string
		u, v int
	}{
		{"self-loop", 1, 1},
		{"duplicate", 0, 1},
		{"duplicate-reversed", 1, 0},
		{"out-of-range-high", 0, 3},
		{"out-of-range-negative", -1, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := g.AddEdge(tc.u, tc.v); err == nil {
				t.Errorf("AddEdge(%d,%d) succeeded, want error", tc.u, tc.v)
			}
		})
	}
}

// TestAddEdgeKeepsListsSorted adds the edges of a random graph in random
// order and requires every adjacency list to hold exactly its neighbors,
// ascending.
func TestAddEdgeKeepsListsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n = 40
	want := make([][]int, n)
	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(4) == 0 {
				edges = append(edges, [2]int{u, v})
				want[u] = append(want[u], v)
				want[v] = append(want[v], u)
			}
		}
	}
	for _, nb := range want {
		sort.Ints(nb)
	}
	r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	g := New(n)
	for _, e := range edges {
		if r.Intn(2) == 0 {
			e[0], e[1] = e[1], e[0]
		}
		mustEdge(t, g, e[0], e[1])
		if err := g.AddEdge(e[1], e[0]); err == nil {
			t.Fatalf("AddEdge(%d,%d) accepted a duplicate", e[1], e[0])
		}
	}
	for u := 0; u < n; u++ {
		if got := g.Neighbors(u); !slices.Equal(got, want[u]) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, got, want[u])
		}
	}
}

func TestHasEdgeAndDegree(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) should hold both ways")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) should be false")
	}
	if g.HasEdge(-1, 5) {
		t.Error("HasEdge out of range should be false")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees = %d,%d want 2,0", g.Degree(1), g.Degree(3))
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func mustEdge(t *testing.T, g *Undirected, u, v int) {
	t.Helper()
	if err := g.AddEdge(u, v); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
	}
}

func TestBFSLine(t *testing.T) {
	g := lineGraph(t, 5)
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 2, 3)
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Errorf("dist = %v, want components 2,3 unreachable", dist)
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := lineGraph(t, 7)
	dist := g.MultiSourceBFS([]int{0, 6})
	want := []int{0, 1, 2, 3, 2, 1, 0}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], want[i])
		}
	}
}

func TestMultiSourceBFSDuplicateSources(t *testing.T) {
	g := lineGraph(t, 3)
	dist := g.MultiSourceBFS([]int{1, 1})
	if dist[0] != 1 || dist[1] != 0 || dist[2] != 1 {
		t.Errorf("dist = %v", dist)
	}
}

func TestShortestPath(t *testing.T) {
	g := gridGraph(t, 3, 3)
	p := g.ShortestPath(0, 8)
	if len(p) != 5 {
		t.Fatalf("path len = %d, want 5 (%v)", len(p), p)
	}
	if p[0] != 0 || p[len(p)-1] != 8 {
		t.Errorf("path endpoints = %d..%d", p[0], p[len(p)-1])
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Errorf("path step (%d,%d) is not an edge", p[i], p[i+1])
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := lineGraph(t, 2)
	p := g.ShortestPath(1, 1)
	if len(p) != 1 || p[0] != 1 {
		t.Errorf("self path = %v, want [1]", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	mustEdge(t, g, 0, 1)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Errorf("unreachable path = %v, want nil", p)
	}
}

func TestShortestPathMatchesBFSProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(20)
		g := New(n)
		for i := 0; i < n*2; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				mustEdge(t, g, u, v)
			}
		}
		src := r.Intn(n)
		dist := g.BFS(src)
		for dst := 0; dst < n; dst++ {
			p := g.ShortestPath(src, dst)
			if dist[dst] == Unreachable {
				if p != nil {
					t.Fatalf("trial %d: ShortestPath found %v but BFS says unreachable", trial, p)
				}
				continue
			}
			if len(p)-1 != dist[dst] {
				t.Fatalf("trial %d: path len %d != BFS dist %d", trial, len(p)-1, dist[dst])
			}
		}
	}
}

func TestConnected(t *testing.T) {
	g := gridGraph(t, 2, 3)
	tests := []struct {
		name  string
		nodes []int
		want  bool
	}{
		{"empty", nil, true},
		{"singleton", []int{4}, true},
		{"adjacent-pair", []int{0, 1}, true},
		{"row", []int{0, 1, 2}, true},
		{"gap", []int{0, 2}, false},
		{"l-shape", []int{0, 1, 4}, true},
		{"diagonal-only", []int{0, 4}, false},
		{"all", []int{0, 1, 2, 3, 4, 5}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.Connected(tc.nodes); got != tc.want {
				t.Errorf("Connected(%v) = %v, want %v", tc.nodes, got, tc.want)
			}
		})
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 4, 5)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3: %v", len(comps), comps)
	}
	wants := [][]int{{0, 1, 2}, {3}, {4, 5}}
	for i, want := range wants {
		if len(comps[i]) != len(want) {
			t.Fatalf("component %d = %v, want %v", i, comps[i], want)
		}
		for j := range want {
			if comps[i][j] != want[j] {
				t.Errorf("component %d = %v, want %v", i, comps[i], want)
			}
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("Sets = %d, want 5", uf.Sets())
	}
	if !uf.Union(0, 1) {
		t.Error("Union(0,1) should merge")
	}
	if uf.Union(1, 0) {
		t.Error("Union(1,0) should not merge twice")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Sets() != 2 {
		t.Errorf("Sets = %d, want 2", uf.Sets())
	}
	if !uf.Same(1, 2) {
		t.Error("Same(1,2) should hold after merges")
	}
	if uf.Same(0, 4) {
		t.Error("Same(0,4) should not hold")
	}
}

func TestUnionFindRandomAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 30
	uf := NewUnionFind(n)
	label := make([]int, n) // naive labeling
	for i := range label {
		label[i] = i
	}
	for op := 0; op < 200; op++ {
		x, y := r.Intn(n), r.Intn(n)
		uf.Union(x, y)
		lx, ly := label[x], label[y]
		if lx != ly {
			for i := range label {
				if label[i] == ly {
					label[i] = lx
				}
			}
		}
		a, b := r.Intn(n), r.Intn(n)
		if uf.Same(a, b) != (label[a] == label[b]) {
			t.Fatalf("op %d: Same(%d,%d) = %v disagrees with naive", op, a, b, uf.Same(a, b))
		}
	}
}

// NumEdges returns the number of undirected edges.
func (g *Undirected) NumEdges() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Undirected) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Degree returns the number of neighbors of u.
func (g *Undirected) Degree(u int) int { return len(g.adj[u]) }

// ShortestPath returns one shortest (fewest-hops) path from src to dst,
// inclusive of both endpoints, or nil if dst is unreachable. A path from a
// node to itself is the single-node path.
func (g *Undirected) ShortestPath(src, dst int) []int {
	return g.ShortestPathInto(src, dst, make([]int, len(g.adj)), nil, nil)
}

// ShortestPathInto is ShortestPath with caller-provided scratch: prev must
// have length N() and is overwritten, queue is the BFS frontier buffer, and
// the path is appended into path[:0]. It returns the path (aliasing path's
// backing array when capacity suffices) or nil if dst is unreachable. The
// node sequence is identical to ShortestPath's.
func (g *Undirected) ShortestPathInto(src, dst int, prev, queue, path []int) []int {
	if src == dst {
		return append(path[:0], src)
	}
	if len(prev) != len(g.adj) {
		panic(fmt.Sprintf("graph: path prev buffer has length %d, need %d", len(prev), len(g.adj)))
	}
	for i := range prev {
		prev[i] = -2 // unvisited
	}
	prev[src] = -1
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if prev[v] != -2 {
				continue
			}
			prev[v] = u
			if v == dst {
				return appendPath(prev, dst, path)
			}
			queue = append(queue, v)
		}
	}
	return nil
}

func appendPath(prev []int, dst int, path []int) []int {
	rev := path[:0]
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Components returns the connected components of the whole graph, each as a
// sorted slice of node indices; components are ordered by smallest member.
func (g *Undirected) Components() [][]int {
	seen := make([]bool, len(g.adj))
	var comps [][]int
	for s := range g.adj {
		if seen[s] {
			continue
		}
		var comp []int
		seen[s] = true
		queue := []int{s}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// NewUnionFind returns a union-find structure over n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int, n),
		rank:   make([]int, n),
		sets:   n,
	}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Same reports whether x and y are in the same set.
func (uf *UnionFind) Same(x, y int) bool { return uf.Find(x) == uf.Find(y) }
