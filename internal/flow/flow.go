// Package flow implements integral maximum flow via Dinic's algorithm.
//
// It is the substrate for the optimal user-assignment subroutine of
// Section II-D of the paper: assigning users to deployed UAVs under service
// capacities reduces to an integral max-flow on a bipartite-ish network
// (source -> users -> locations -> sink). MaxFlow augments whatever flow the
// network already carries, so edges added after a MaxFlow call are picked up
// by the next one.
//
// The greedy placement loop's marginal-gain queries run on internal/match;
// this package backs assign.Solve (final assignments, fixed placements,
// verification), which the tests also use as the reference the matcher is
// compared against.
package flow

import "fmt"

// edge is one directed arc of the residual network. Arcs are stored in pairs:
// arc i and arc i^1 are each other's reverse.
type edge struct {
	to  int
	cap int // remaining capacity
}

// Network is a flow network on nodes 0..n-1 with integer capacities.
// The zero value is not usable; create one with NewNetwork.
type Network struct {
	n     int
	edges []edge
	head  [][]int // node -> indices into edges

	// scratch buffers reused across MaxFlow calls
	level []int
	iter  []int
	queue []int
}

// NewNetwork returns an empty flow network with n nodes.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic(fmt.Sprintf("flow: negative node count %d", n))
	}
	return &Network{
		n:     n,
		head:  make([][]int, n),
		level: make([]int, n),
		iter:  make([]int, n),
	}
}

// AddEdge adds a directed edge from u to v with the given capacity and
// returns its handle, usable with Flow. Capacity must be non-negative.
func (nw *Network) AddEdge(u, v, capacity int) (int, error) {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		return 0, fmt.Errorf("flow: edge (%d,%d) out of range [0,%d)", u, v, nw.n)
	}
	if u == v {
		return 0, fmt.Errorf("flow: self loop at node %d", u)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flow: negative capacity %d on edge (%d,%d)", capacity, u, v)
	}
	h := len(nw.edges)
	nw.edges = append(nw.edges, edge{to: v, cap: capacity})
	nw.edges = append(nw.edges, edge{to: u, cap: 0})
	nw.head[u] = append(nw.head[u], h)
	nw.head[v] = append(nw.head[v], h+1)
	return h, nil
}

// Flow returns the amount of flow currently routed through forward edge h.
// It equals the residual capacity of the reverse arc.
func (nw *Network) Flow(h int) int {
	return nw.edges[h^1].cap
}

// bfsLevels builds the level graph; returns false if t is unreachable.
func (nw *Network) bfsLevels(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := nw.queue[:0]
	nw.level[s] = 0
	queue = append(queue, s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, h := range nw.head[u] {
			e := nw.edges[h]
			if e.cap > 0 && nw.level[e.to] == -1 {
				nw.level[e.to] = nw.level[u] + 1
				queue = append(queue, e.to)
			}
		}
	}
	nw.queue = queue[:0]
	return nw.level[t] >= 0
}

// dfsBlocking sends flow along the level graph.
func (nw *Network) dfsBlocking(u, t, limit int) int {
	if u == t {
		return limit
	}
	for ; nw.iter[u] < len(nw.head[u]); nw.iter[u]++ {
		h := nw.head[u][nw.iter[u]]
		e := &nw.edges[h]
		if e.cap <= 0 || nw.level[e.to] != nw.level[u]+1 {
			continue
		}
		pushed := nw.dfsBlocking(e.to, t, min(limit, e.cap))
		if pushed > 0 {
			e.cap -= pushed
			nw.edges[h^1].cap += pushed
			return pushed
		}
	}
	return 0
}

// MaxFlow augments the current flow to a maximum flow from s to t and
// returns the *additional* flow pushed by this call. On a fresh network this
// is the max-flow value; after AddEdge it is the incremental gain.
func (nw *Network) MaxFlow(s, t int) (int, error) {
	if s < 0 || s >= nw.n || t < 0 || t >= nw.n {
		return 0, fmt.Errorf("flow: source/sink (%d,%d) out of range [0,%d)", s, t, nw.n)
	}
	if s == t {
		return 0, fmt.Errorf("flow: source equals sink (%d)", s)
	}
	total := 0
	for nw.bfsLevels(s, t) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for {
			pushed := nw.dfsBlocking(s, t, int(^uint(0)>>1))
			if pushed == 0 {
				break
			}
			total += pushed
		}
	}
	return total, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
