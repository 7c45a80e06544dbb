// Package graph provides the graph algorithms the deployment algorithms are
// built on: undirected adjacency graphs, breadth-first hop distances,
// connectivity queries, minimum spanning trees, and a precomputed
// shortest-path oracle. The Eulerian-path machinery (tree doubling and path
// splitting) behind the analysis in Section III-A of the paper, a plain BFS
// shortest path and Kruskal over a fresh union-find live in the package's
// tests, as the references the production code is checked against.
//
// Nodes are dense integer indices in [0, N). The package has no dependencies
// beyond the standard library.
package graph

import (
	"fmt"
	"slices"
)

// Undirected is an undirected graph on nodes 0..n-1 stored as adjacency
// lists, each kept sorted ascending. The zero value is an empty graph with no
// nodes; use New to create a graph with a fixed node count.
type Undirected struct {
	adj [][]int
}

// New returns an undirected graph with n nodes and no edges.
func New(n int) *Undirected {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Undirected{adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Undirected) N() int { return len(g.adj) }

// AddEdge inserts the undirected edge (u, v), keeping both adjacency lists
// sorted. Self loops and duplicate edges are rejected with an error so that
// callers notice modeling mistakes. Edges added in ascending (u, v) order
// land at the end of each list, so building a graph that way moves nothing.
func (g *Undirected) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	}
	if u == v {
		return fmt.Errorf("graph: self loop at node %d", u)
	}
	i, dup := slices.BinarySearch(g.adj[u], v)
	if dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = slices.Insert(g.adj[u], i, v)
	j, _ := slices.BinarySearch(g.adj[v], u)
	g.adj[v] = slices.Insert(g.adj[v], j, u)
	return nil
}

// Neighbors returns the adjacency list of u, sorted ascending. The returned
// slice is owned by the graph and must not be modified.
func (g *Undirected) Neighbors(u int) []int { return g.adj[u] }

// Unreachable is the hop distance reported by BFS for nodes that cannot be
// reached from the source set.
const Unreachable = -1

// BFS returns the hop distance from src to every node, with Unreachable (-1)
// for nodes in other components.
func (g *Undirected) BFS(src int) []int {
	return g.MultiSourceBFS([]int{src})
}

// MultiSourceBFS returns, for every node, the minimum hop distance to any of
// the given source nodes. Sources are at distance 0. Nodes unreachable from
// every source get Unreachable (-1).
func (g *Undirected) MultiSourceBFS(sources []int) []int {
	dist := make([]int, len(g.adj))
	g.MultiSourceBFSInto(sources, dist, nil)
	return dist
}

// MultiSourceBFSInto is MultiSourceBFS with caller-provided scratch: dist
// must have length N() and is overwritten in place; queue is the frontier
// buffer, grown as needed and returned so the caller can reuse its capacity.
// With a queue of capacity N() the call performs no allocation.
func (g *Undirected) MultiSourceBFSInto(sources, dist, queue []int) []int {
	if len(dist) != len(g.adj) {
		panic(fmt.Sprintf("graph: BFS dist buffer has length %d, need %d", len(dist), len(g.adj)))
	}
	for i := range dist {
		dist[i] = Unreachable
	}
	queue = queue[:0]
	for _, s := range sources {
		if s < 0 || s >= len(g.adj) {
			panic(fmt.Sprintf("graph: BFS source %d out of range [0,%d)", s, len(g.adj)))
		}
		if dist[s] == Unreachable {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Connected reports whether the subgraph induced by the given nodes is
// connected (every node in the set reachable from every other using only
// edges between set members). The empty set and singleton sets are connected.
func (g *Undirected) Connected(nodes []int) bool {
	if len(nodes) <= 1 {
		return true
	}
	in := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		in[v] = true
	}
	seen := map[int]bool{nodes[0]: true}
	queue := []int{nodes[0]}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if in[v] && !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(seen) == len(in)
}
