package graph

import (
	"fmt"
	"math/bits"
)

// PathOracle precomputes one BFS tree per source node, so shortest paths and
// hop distances can be read back without re-traversing the graph and without
// allocating. It stores one row per source: int32 predecessors and int hop
// distances, 12*N^2 bytes in all. DistRow hands out the distance rows
// themselves, so a hop matrix built from them is not a second copy.
// Building the oracle reads at most N/64 bitset words per dequeued node,
// O(N^3/64) in all; the deployment algorithms build it once per Instance and
// then expand every MST edge of every anchor subset from it.
//
// The oracle's BFS visits each node's neighbors in ascending order, which
// is adjacency-list order since AddEdge keeps every list sorted. So each
// path is the one a plain BFS over the lists finds; the tests check the
// predecessors and distances against such a BFS entry for entry.
type PathOracle struct {
	n    int
	prev []int32 // prev[src*n+v]: predecessor of v on a shortest src-v path; -1 at src, -2 unreachable
	dist []int   // dist[src*n+v]: hop distance, or Unreachable
}

// NewPathOracle builds the oracle for g by running one BFS per node. Each BFS
// reads the graph as one adjacency bitset per node: a dequeued node's
// undiscovered neighbors are adj[u] &^ seen, taken a word at a time in
// ascending order.
func NewPathOracle(g *Undirected) *PathOracle {
	n := g.N()
	o := &PathOracle{
		n:    n,
		prev: make([]int32, n*n),
		dist: make([]int, n*n),
	}
	// adj[u*words+w] is word w of u's neighbor set. Only the words from
	// u's lowest neighbor to its highest (the ends of its sorted list) can
	// be nonzero, so the BFS reads words wlo[u] to whi[u]-1 alone.
	words := (n + 63) / 64
	adj := make([]uint64, n*words)
	wlo, whi := make([]int, n), make([]int, n)
	for u := 0; u < n; u++ {
		nb := g.Neighbors(u)
		for _, v := range nb {
			adj[u*words+v/64] |= 1 << (v % 64)
		}
		if len(nb) > 0 {
			wlo[u], whi[u] = nb[0]/64, nb[len(nb)-1]/64+1
		}
	}
	seen := make([]uint64, words)
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		prev := o.prev[src*n : (src+1)*n]
		dist := o.dist[src*n : (src+1)*n]
		for i := range prev {
			prev[i] = -2
			dist[i] = Unreachable
		}
		clear(seen)
		seen[src/64] |= 1 << (src % 64)
		prev[src] = -1
		dist[src] = 0
		queue = append(queue[:0], src)
		// Once every node is queued, no dequeued node can discover another.
		for head := 0; head < len(queue) && len(queue) < n; head++ {
			u := queue[head]
			du := dist[u] + 1
			lo, hi := wlo[u], whi[u]
			near := seen[lo:hi]
			for i, word := range adj[u*words+lo : u*words+hi] {
				fresh := word &^ near[i]
				near[i] |= fresh
				for ; fresh != 0; fresh &= fresh - 1 {
					v := (lo+i)*64 + bits.TrailingZeros64(fresh)
					prev[v] = int32(u)
					dist[v] = du
					queue = append(queue, v)
				}
			}
		}
	}
	return o
}

// DistRow returns the hop distances from src to every node; it equals
// BFS(src). The slice is the oracle's own row, capped at N() so an append
// cannot reach the next one, and must not be modified.
func (o *PathOracle) DistRow(src int) []int {
	o.check(src)
	return o.dist[src*o.n : (src+1)*o.n : (src+1)*o.n]
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
				dist[v] = d
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
