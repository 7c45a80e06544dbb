package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMultigraphBasics(t *testing.T) {
	m := NewMultigraph(3)
	if err := m.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddEdge(0, 1); err != nil {
		t.Fatalf("parallel edge should be allowed: %v", err)
	}
	if err := m.AddEdge(1, 1); err == nil {
		t.Error("self loop should be rejected")
	}
	if err := m.AddEdge(0, 7); err == nil {
		t.Error("out of range should be rejected")
	}
	if m.NumEdges() != 2 || m.Degree(0) != 2 || m.Degree(2) != 0 {
		t.Errorf("NumEdges=%d deg0=%d deg2=%d", m.NumEdges(), m.Degree(0), m.Degree(2))
	}
}

func TestEulerianPathSimple(t *testing.T) {
	// Path graph 0-1-2 has an Eulerian path 0,1,2.
	m := NewMultigraph(3)
	_ = m.AddEdge(0, 1)
	_ = m.AddEdge(1, 2)
	p, err := m.EulerianPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("path = %v, want 3 nodes", p)
	}
}

func TestEulerianPathCircuit(t *testing.T) {
	// Triangle: all even degrees, circuit of 4 nodes (3 edges).
	m := NewMultigraph(3)
	_ = m.AddEdge(0, 1)
	_ = m.AddEdge(1, 2)
	_ = m.AddEdge(2, 0)
	p, err := m.EulerianPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 || p[0] != p[len(p)-1] {
		t.Errorf("circuit = %v, want closed walk of 4 nodes", p)
	}
}

func TestEulerianPathRejections(t *testing.T) {
	t.Run("no-edges", func(t *testing.T) {
		if _, err := NewMultigraph(2).EulerianPath(); err == nil {
			t.Error("edgeless multigraph should fail")
		}
	})
	t.Run("four-odd", func(t *testing.T) {
		m := NewMultigraph(5)
		_ = m.AddEdge(0, 1)
		_ = m.AddEdge(2, 3)
		_ = m.AddEdge(0, 2)
		_ = m.AddEdge(1, 4)
		_ = m.AddEdge(3, 4)
		_ = m.AddEdge(0, 3) // degrees: 0:3 1:2 2:2 3:3 4:2 -> ok actually
		_ = m.AddEdge(1, 2) // make 1 and 2 odd too: now four odd nodes
		if _, err := m.EulerianPath(); err == nil {
			t.Error("four odd-degree nodes should fail")
		}
	})
	t.Run("disconnected-edges", func(t *testing.T) {
		m := NewMultigraph(4)
		_ = m.AddEdge(0, 1)
		_ = m.AddEdge(2, 3)
		if _, err := m.EulerianPath(); err == nil {
			t.Error("disconnected edge set should fail")
		}
	})
}

func validateWalk(t *testing.T, m *Multigraph, walk []int) {
	t.Helper()
	if len(walk) != m.NumEdges()+1 {
		t.Fatalf("walk %v visits %d edges, want %d", walk, len(walk)-1, m.NumEdges())
	}
	// Count required multi-edges and consume them along the walk.
	type pair struct{ a, b int }
	remaining := map[pair]int{}
	for i := 0; i < m.NumEdges(); i++ {
		e := m.edges[i]
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		remaining[pair{a, b}]++
	}
	for i := 0; i+1 < len(walk); i++ {
		a, b := walk[i], walk[i+1]
		if a > b {
			a, b = b, a
		}
		if remaining[pair{a, b}] == 0 {
			t.Fatalf("walk step (%d,%d) has no remaining edge", walk[i], walk[i+1])
		}
		remaining[pair{a, b}]--
	}
}

func TestEulerianPathRandomProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		// Random tree + duplicate every edge => all degrees even, Eulerian.
		n := 2 + r.Intn(15)
		m := NewMultigraph(n)
		for v := 1; v < n; v++ {
			u := r.Intn(v)
			_ = m.AddEdge(u, v)
			_ = m.AddEdge(u, v)
		}
		walk, err := m.EulerianPath()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		validateWalk(t, m, walk)
	}
}

func TestDoubleTreeEulerianPath(t *testing.T) {
	// The Fig. 2 construction: K nodes, K-1 tree edges, duplicate K-2 of
	// them: the Eulerian path has 2K-3 edges, i.e. 2K-2 nodes.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		k := 2 + r.Intn(14)
		edges := make([][2]int, 0, k-1)
		for v := 1; v < k; v++ {
			edges = append(edges, [2]int{r.Intn(v), v})
		}
		walk, err := DoubleTreeEulerianPath(k, edges)
		if err != nil {
			t.Fatalf("trial %d (k=%d): %v", trial, k, err)
		}
		if want := 2*k - 2; len(walk) != want {
			t.Fatalf("trial %d: walk has %d nodes, want 2K-2 = %d", trial, len(walk), want)
		}
		// Every tree node must appear in the walk.
		seen := map[int]bool{}
		for _, v := range walk {
			seen[v] = true
		}
		if len(seen) != k {
			t.Fatalf("trial %d: walk covers %d of %d nodes", trial, len(seen), k)
		}
	}
}

func TestDoubleTreeSingleNode(t *testing.T) {
	walk, err := DoubleTreeEulerianPath(1, nil)
	if err != nil || len(walk) != 1 {
		t.Errorf("k=1: walk=%v err=%v", walk, err)
	}
}

func TestDoubleTreeWrongEdgeCount(t *testing.T) {
	if _, err := DoubleTreeEulerianPath(3, [][2]int{{0, 1}}); err == nil {
		t.Error("wrong edge count should fail")
	}
}

func TestSplitPath(t *testing.T) {
	tests := []struct {
		name string
		path []int
		l    int
		want [][]int
	}{
		{"exact", []int{1, 2, 3, 4}, 2, [][]int{{1, 2}, {3, 4}}},
		{"remainder", []int{1, 2, 3, 4, 5}, 2, [][]int{{1, 2}, {3, 4}, {5}}},
		{"whole", []int{1, 2}, 10, [][]int{{1, 2}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := SplitPath(tc.path, tc.l)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if len(got[i]) != len(tc.want[i]) {
					t.Fatalf("segment %d = %v, want %v", i, got[i], tc.want[i])
				}
				for j := range tc.want[i] {
					if got[i][j] != tc.want[i][j] {
						t.Errorf("segment %d = %v, want %v", i, got[i], tc.want[i])
					}
				}
			}
		})
	}
}

func TestSplitPathInvalidLength(t *testing.T) {
	if _, err := SplitPath([]int{1}, 0); err == nil {
		t.Error("l=0 should fail")
	}
}

// TestSectionIIIASplitCount verifies the paper's counting argument: the
// doubled-tree Eulerian path on K nodes has 2K-2 node slots, so splitting
// into segments of L nodes yields Delta = ceil((2K-2)/L) segments, and every
// tree node appears in some segment.
func TestSectionIIIASplitCount(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		k := 2 + r.Intn(20)
		edges := make([][2]int, 0, k-1)
		for v := 1; v < k; v++ {
			edges = append(edges, [2]int{r.Intn(v), v})
		}
		walk, err := DoubleTreeEulerianPath(k, edges)
		if err != nil {
			t.Fatal(err)
		}
		l := 1 + r.Intn(2*k)
		segs, err := SplitPath(walk, l)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta := (2*k - 2 + l - 1) / l
		if len(segs) != wantDelta {
			t.Fatalf("trial %d: %d segments, want ceil((2K-2)/L) = %d", trial, len(segs), wantDelta)
		}
		covered := map[int]bool{}
		for _, s := range segs {
			for _, v := range s {
				covered[v] = true
			}
		}
		if len(covered) != k {
			t.Fatalf("trial %d: segments cover %d of %d nodes", trial, len(covered), k)
		}
	}
}

// Multigraph is an undirected multigraph (parallel edges allowed) used for
// the Eulerian-path construction of Section III-A: duplicating K-2 edges of a
// spanning tree T* yields a multigraph with an Eulerian path of 2K-3 edges.
type Multigraph struct {
	n     int
	edges [][2]int // endpoint pairs; index identifies the edge instance
	inc   [][]int  // node -> incident edge indices
}

// NewMultigraph returns an empty multigraph on n nodes.
func NewMultigraph(n int) *Multigraph {
	return &Multigraph{n: n, inc: make([][]int, n)}
}

// NumEdges returns the number of edge instances (parallel edges counted).
func (m *Multigraph) NumEdges() int { return len(m.edges) }

// AddEdge adds one instance of the undirected edge (u, v). Parallel edges are
// allowed; self loops are not.
func (m *Multigraph) AddEdge(u, v int) error {
	if u < 0 || u >= m.n || v < 0 || v >= m.n {
		return fmt.Errorf("graph: multigraph edge (%d,%d) out of range [0,%d)", u, v, m.n)
	}
	if u == v {
		return fmt.Errorf("graph: multigraph self loop at %d", u)
	}
	idx := len(m.edges)
	m.edges = append(m.edges, [2]int{u, v})
	m.inc[u] = append(m.inc[u], idx)
	m.inc[v] = append(m.inc[v], idx)
	return nil
}

// Degree returns the degree of u, counting parallel edges.
func (m *Multigraph) Degree(u int) int { return len(m.inc[u]) }

// EulerianPath returns a walk (sequence of nodes) traversing every edge
// instance exactly once, using Hierholzer's algorithm. It returns an error if
// no Eulerian path exists (more than two odd-degree nodes, or the edges are
// not in a single connected component).
func (m *Multigraph) EulerianPath() ([]int, error) {
	if len(m.edges) == 0 {
		return nil, fmt.Errorf("graph: Eulerian path of an edgeless multigraph")
	}
	var odd []int
	start := -1
	for u := 0; u < m.n; u++ {
		if len(m.inc[u])%2 == 1 {
			odd = append(odd, u)
		}
		if start == -1 && len(m.inc[u]) > 0 {
			start = u
		}
	}
	switch len(odd) {
	case 0:
		// Eulerian circuit; start anywhere with an edge.
	case 2:
		start = odd[0]
	default:
		return nil, fmt.Errorf("graph: %d odd-degree nodes, Eulerian path requires 0 or 2", len(odd))
	}

	used := make([]bool, len(m.edges))
	next := make([]int, m.n) // per-node cursor into inc lists
	var path []int
	stack := []int{start}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		advanced := false
		for next[u] < len(m.inc[u]) {
			ei := m.inc[u][next[u]]
			next[u]++
			if used[ei] {
				continue
			}
			used[ei] = true
			v := m.edges[ei][0]
			if v == u {
				v = m.edges[ei][1]
			}
			stack = append(stack, v)
			advanced = true
			break
		}
		if !advanced {
			path = append(path, u)
			stack = stack[:len(stack)-1]
		}
	}
	if len(path) != len(m.edges)+1 {
		return nil, fmt.Errorf("graph: edges not connected, Eulerian walk covers %d of %d edges",
			len(path)-1, len(m.edges))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// DoubleTreeEulerianPath implements the construction of Fig. 2(a)-(b): given
// the K-1 edges of a spanning tree on k nodes, it duplicates K-2 of them
// (all but one edge on a longest-leaf path end, here: all but the first) so
// that the resulting multigraph has exactly two odd-degree nodes, and returns
// an Eulerian path with 2K-3 edges.
func DoubleTreeEulerianPath(k int, treeEdges [][2]int) ([]int, error) {
	if len(treeEdges) != k-1 {
		return nil, fmt.Errorf("graph: spanning tree on %d nodes needs %d edges, got %d", k, k-1, len(treeEdges))
	}
	if k == 1 {
		return []int{0}, nil
	}
	m := NewMultigraph(k)
	for i, e := range treeEdges {
		if err := m.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
		if i > 0 { // duplicate K-2 edges: every tree edge except the first
			if err := m.AddEdge(e[0], e[1]); err != nil {
				return nil, err
			}
		}
	}
	return m.EulerianPath()
}

// SplitPath splits a walk (sequence of nodes) into segments of at most l
// nodes each, as in Fig. 2(c): the first ceil(len/l)-1 segments have exactly
// l nodes and the last has the remainder. Segments are non-overlapping in
// positions; consecutive segments do not share the boundary node.
func SplitPath(path []int, l int) ([][]int, error) {
	if l <= 0 {
		return nil, fmt.Errorf("graph: split length %d must be positive", l)
	}
	var out [][]int
	for start := 0; start < len(path); start += l {
		end := start + l
		if end > len(path) {
			end = len(path)
		}
		seg := make([]int, end-start)
		copy(seg, path[start:end])
		out = append(out, seg)
	}
	return out, nil
}
