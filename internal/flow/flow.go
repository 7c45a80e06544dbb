// Package flow implements integral maximum flow via Dinic's algorithm.
//
// It is the substrate for the optimal user-assignment subroutine of
// Section II-D of the paper: assigning users to deployed UAVs under service
// capacities reduces to an integral max-flow on a bipartite-ish network
// (source -> users -> locations -> sink). The implementation supports
// incremental use: capacities can be added after a MaxFlow call and the flow
// re-augmented.
//
// Since the internal/match matcher took over the greedy placement loop's
// marginal-gain queries, this package is the reference path: it backs
// assign.Solve (final assignments, fixed placements, verification) and the
// assign.Evaluator that the differential tests compare the matcher against.
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

	// cp, when non-nil, journals mutations so Rollback can undo them. The
	// struct and its slices are reused across speculative regions to avoid
	// per-query allocation.
	cp     *checkpoint
	cpPool checkpoint

	// base, when set, snapshots the network right after construction so
	// ResetToBaseline can rewind cheaply (see MarkBaseline).
	base *baselineSnapshot

	queue []int // reusable BFS queue
}

// baselineSnapshot captures the full capacity vector and adjacency lengths
// at MarkBaseline time.
type baselineSnapshot struct {
	nEdges  int
	caps    []int
	headLen []int
}

// checkpoint records everything needed to undo mutations made after Begin:
// the edge count (speculative edges are simply truncated), the adjacency
// lists that grew, and the capacities of pre-existing arcs that changed.
type checkpoint struct {
	nEdges int
	heads  [][2]int // (node, head length before growth)
	caps   [][2]int // (arc index, capacity before change), chronological
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

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// AddEdge adds a directed edge from u to v with the given capacity and
// returns its handle, usable with Flow and AddCapacity. Capacity must be
// non-negative.
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
	if nw.cp != nil {
		nw.cp.heads = append(nw.cp.heads, [2]int{u, len(nw.head[u])}, [2]int{v, len(nw.head[v])})
	}
	nw.edges = append(nw.edges, edge{to: v, cap: capacity})
	nw.edges = append(nw.edges, edge{to: u, cap: 0})
	nw.head[u] = append(nw.head[u], h)
	nw.head[v] = append(nw.head[v], h+1)
	return h, nil
}

// Begin starts a speculative region: every subsequent AddEdge, AddCapacity
// and MaxFlow mutation is journaled until Rollback discards it (or
// CommitSpeculation keeps it). Speculation cannot nest.
//
// This is what makes the greedy placement loop's what-if queries cheap: a
// query adds a candidate station's edges, augments, reads the gain, and
// rolls back in time proportional to the touched arcs instead of cloning
// the whole network.
func (nw *Network) Begin() error {
	if nw.cp != nil {
		return fmt.Errorf("flow: speculation already active")
	}
	nw.cpPool.nEdges = len(nw.edges)
	nw.cpPool.heads = nw.cpPool.heads[:0]
	nw.cpPool.caps = nw.cpPool.caps[:0]
	nw.cp = &nw.cpPool
	return nil
}

// Rollback undoes every mutation since Begin and ends the speculative
// region. It is a no-op if no speculation is active.
func (nw *Network) Rollback() {
	cp := nw.cp
	if cp == nil {
		return
	}
	for i := len(cp.caps) - 1; i >= 0; i-- {
		nw.edges[cp.caps[i][0]].cap = cp.caps[i][1]
	}
	for i := len(cp.heads) - 1; i >= 0; i-- {
		node, l := cp.heads[i][0], cp.heads[i][1]
		nw.head[node] = nw.head[node][:l]
	}
	nw.edges = nw.edges[:cp.nEdges]
	nw.cp = nil
}

// CommitSpeculation keeps every mutation since Begin and ends the
// speculative region.
func (nw *Network) CommitSpeculation() {
	nw.cp = nil
}

// MarkBaseline snapshots the current network state (edge set, capacities,
// adjacency) so ResetToBaseline can rewind to it in O(V+E) with no
// allocation in the steady state. Long-lived evaluators mark the baseline
// once after constructing their fixed part and reset between uses.
func (nw *Network) MarkBaseline() {
	b := &baselineSnapshot{
		nEdges:  len(nw.edges),
		caps:    make([]int, len(nw.edges)),
		headLen: make([]int, nw.n),
	}
	for i := range nw.edges {
		b.caps[i] = nw.edges[i].cap
	}
	for v := range nw.head {
		b.headLen[v] = len(nw.head[v])
	}
	nw.base = b
}

// ResetToBaseline rewinds the network to the MarkBaseline snapshot,
// discarding all edges added and all flow pushed since. It fails if no
// baseline was marked; an active speculative region is discarded first.
func (nw *Network) ResetToBaseline() error {
	if nw.base == nil {
		return fmt.Errorf("flow: no baseline marked")
	}
	nw.cp = nil
	b := nw.base
	nw.edges = nw.edges[:b.nEdges]
	for i := range nw.edges {
		nw.edges[i].cap = b.caps[i]
	}
	for v := range nw.head {
		nw.head[v] = nw.head[v][:b.headLen[v]]
	}
	return nil
}

// journalCap records an arc's capacity before mutation when speculating.
// Arcs created inside the speculative region are removed wholesale on
// rollback and need no journal entries.
func (nw *Network) journalCap(h int) {
	if nw.cp != nil && h < nw.cp.nEdges {
		nw.cp.caps = append(nw.cp.caps, [2]int{h, nw.edges[h].cap})
	}
}

// AddCapacity increases the capacity of the forward edge h by delta
// (delta >= 0). Combined with MaxFlow this supports incremental
// re-augmentation after raising capacities.
func (nw *Network) AddCapacity(h, delta int) error {
	if h < 0 || h >= len(nw.edges) || h%2 != 0 {
		return fmt.Errorf("flow: invalid edge handle %d", h)
	}
	if delta < 0 {
		return fmt.Errorf("flow: negative capacity delta %d", delta)
	}
	nw.journalCap(h)
	nw.edges[h].cap += delta
	return nil
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
			nw.journalCap(h)
			nw.journalCap(h ^ 1)
			e.cap -= pushed
			nw.edges[h^1].cap += pushed
			return pushed
		}
	}
	return 0
}

// MaxFlow augments the current flow to a maximum flow from s to t and
// returns the *additional* flow pushed by this call. On a fresh network this
// is the max-flow value; after AddCapacity it is the incremental gain.
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

// MinCutReachable returns the set of nodes reachable from s in the residual
// network after a MaxFlow call; the cut edges go from this set to its
// complement. Used by tests to verify max-flow = min-cut.
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

// Clone returns a deep copy of the network including its current flow state.
// The greedy placement loop clones a network to evaluate a tentative UAV
// placement without disturbing the committed state.
func (nw *Network) Clone() *Network {
	cp := &Network{
		n:     nw.n,
		edges: append([]edge(nil), nw.edges...),
		head:  make([][]int, nw.n),
		level: make([]int, nw.n),
		iter:  make([]int, nw.n),
	}
	for i, hs := range nw.head {
		cp.head[i] = append([]int(nil), hs...)
	}
	return cp
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
