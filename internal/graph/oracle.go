package graph

import "fmt"

// PathOracle precomputes one BFS tree per source node — predecessor and hop
// distance arrays stored as flat int32 matrices — so shortest paths and hop
// distances can be read back without re-traversing the graph and without
// allocating. Building the oracle costs O(N*(N+E)) time and 8*N^2 bytes; the
// deployment algorithms build it once per Instance and then expand every MST
// edge of every anchor subset from it.
//
// The oracle's BFS visits neighbors in adjacency-list order, so each path is
// the one a plain BFS from the source finds; the tests check PathInto
// against one node for node.
type PathOracle struct {
	n    int
	prev []int32 // prev[src*n+v]: predecessor of v on a shortest src-v path; -1 at src, -2 unreachable
	dist []int32 // dist[src*n+v]: hop distance, or Unreachable
}

// NewPathOracle builds the oracle for g by running one BFS per node.
func NewPathOracle(g *Undirected) *PathOracle {
	n := g.N()
	o := &PathOracle{
		n:    n,
		prev: make([]int32, n*n),
		dist: make([]int32, n*n),
	}
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		prev := o.prev[src*n : (src+1)*n]
		dist := o.dist[src*n : (src+1)*n]
		for i := range prev {
			prev[i] = -2
			dist[i] = Unreachable
		}
		prev[src] = -1
		dist[src] = 0
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := dist[u]
			for _, v := range g.Neighbors(u) {
				if prev[v] == -2 {
					prev[v] = int32(u)
					dist[v] = du + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return o
}

// DistRow returns the hop distances from src to every node as a fresh []int
// slice (the oracle stores them compactly as int32). It equals BFS(src).
func (o *PathOracle) DistRow(src int) []int {
	o.check(src)
	row := o.dist[src*o.n : (src+1)*o.n]
	out := make([]int, o.n)
	for i, d := range row {
		out[i] = int(d)
	}
	return out
}

// MultiSourceDistInto fills dist[:N()] with every node's hop distance to the
// nearest of sources, or Unreachable if it reaches none — the same values as
// MultiSourceBFS on the oracle's graph, read as the element-wise minimum of
// the sources' distance rows instead of traversed. Duplicate sources are
// harmless; no sources leave every node Unreachable. The call allocates
// nothing.
func (o *PathOracle) MultiSourceDistInto(sources, dist []int) {
	dist = dist[:o.n]
	for i := range dist {
		dist[i] = Unreachable
	}
	for _, src := range sources {
		o.check(src)
		for v, d := range o.dist[src*o.n : (src+1)*o.n] {
			// Unreachable is -1, the largest value as an unsigned integer,
			// so one unsigned comparison skips it on either side.
			if uint(d) < uint(dist[v]) {
				dist[v] = int(d)
			}
		}
	}
}

// PathInto appends one shortest (fewest-hops) path from src to dst —
// inclusive of both endpoints, the one a BFS from src in adjacency-list
// order finds — into path[:0] and returns it, or nil if dst is unreachable. With sufficient capacity in path the
// call performs no allocation.
func (o *PathOracle) PathInto(src, dst int, path []int) []int {
	o.check(src)
	o.check(dst)
	row := o.prev[src*o.n : (src+1)*o.n]
	if row[dst] == -2 {
		return nil
	}
	rev := path[:0]
	for v := dst; v != src; v = int(row[v]) {
		rev = append(rev, v)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (o *PathOracle) check(v int) {
	if v < 0 || v >= o.n {
		panic(fmt.Sprintf("graph: oracle node %d out of range [0,%d)", v, o.n))
	}
}
