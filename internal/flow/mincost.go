package flow

import (
	"container/heap"
	"fmt"
	"math"
)

// CostNetwork is a flow network with per-arc costs, solved by the
// successive-shortest-path algorithm with Johnson potentials. It computes a
// minimum-cost maximum flow: among all maximum flows, one of minimum total
// cost.
//
// The deployment library uses it to refine a coverage-maximal user
// assignment into the one that additionally minimizes total pathloss
// (assign.SolveMinCost): the served-user count of Lemma 1 is preserved
// because the maximum flow value is unchanged; only its cost is optimized.
type CostNetwork struct {
	n      int
	toArr  []int
	capArr []int
	cost   []int64
	head   [][]int

	potential []int64
	dist      []int64
	prevArc   []int
}

// NewCostNetwork returns an empty cost network on n nodes.
func NewCostNetwork(n int) *CostNetwork {
	if n < 0 {
		panic(fmt.Sprintf("flow: negative node count %d", n))
	}
	return &CostNetwork{
		n:         n,
		head:      make([][]int, n),
		potential: make([]int64, n),
		dist:      make([]int64, n),
		prevArc:   make([]int, n),
	}
}

// AddEdge adds a directed arc u->v with the given capacity and per-unit
// cost (cost >= 0), returning a handle for Flow.
func (cn *CostNetwork) AddEdge(u, v, capacity int, cost int64) (int, error) {
	if u < 0 || u >= cn.n || v < 0 || v >= cn.n {
		return 0, fmt.Errorf("flow: cost edge (%d,%d) out of range [0,%d)", u, v, cn.n)
	}
	if u == v {
		return 0, fmt.Errorf("flow: cost self loop at %d", u)
	}
	if capacity < 0 {
		return 0, fmt.Errorf("flow: negative capacity %d", capacity)
	}
	if cost < 0 {
		return 0, fmt.Errorf("flow: negative cost %d (reduce via potentials outside)", cost)
	}
	h := len(cn.toArr)
	cn.toArr = append(cn.toArr, v, u)
	cn.capArr = append(cn.capArr, capacity, 0)
	cn.cost = append(cn.cost, cost, -cost)
	cn.head[u] = append(cn.head[u], h)
	cn.head[v] = append(cn.head[v], h+1)
	return h, nil
}

// Flow returns the flow routed through forward arc h.
func (cn *CostNetwork) Flow(h int) int { return cn.capArr[h^1] }

// costItem is a Dijkstra priority-queue entry.
type costItem struct {
	node int
	dist int64
}

type costPQ []costItem

func (q costPQ) Len() int           { return len(q) }
func (q costPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q costPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *costPQ) Push(x any)        { *q = append(*q, x.(costItem)) }
func (q *costPQ) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

const infCost = int64(math.MaxInt64 / 4)

// MinCostMaxFlow augments from s to t until no augmenting path remains and
// returns the total flow and its total cost. All arc costs are
// non-negative, so plain Dijkstra with potentials is exact.
func (cn *CostNetwork) MinCostMaxFlow(s, t int) (int, int64, error) {
	if s < 0 || s >= cn.n || t < 0 || t >= cn.n {
		return 0, 0, fmt.Errorf("flow: source/sink (%d,%d) out of range [0,%d)", s, t, cn.n)
	}
	if s == t {
		return 0, 0, fmt.Errorf("flow: source equals sink (%d)", s)
	}
	for i := range cn.potential {
		cn.potential[i] = 0
	}
	totalFlow := 0
	var totalCost int64
	for cn.dijkstra(s, t) {
		// Bottleneck along the shortest path.
		bottleneck := int(^uint(0) >> 1)
		for v := t; v != s; {
			h := cn.prevArc[v]
			if cn.capArr[h] < bottleneck {
				bottleneck = cn.capArr[h]
			}
			v = cn.toArr[h^1]
		}
		for v := t; v != s; {
			h := cn.prevArc[v]
			cn.capArr[h] -= bottleneck
			cn.capArr[h^1] += bottleneck
			totalCost += int64(bottleneck) * cn.cost[h]
			v = cn.toArr[h^1]
		}
		totalFlow += bottleneck
		// Update potentials for the next round.
		for v := 0; v < cn.n; v++ {
			if cn.dist[v] < infCost {
				cn.potential[v] += cn.dist[v]
			}
		}
	}
	return totalFlow, totalCost, nil
}

// dijkstra computes reduced-cost shortest distances from s; returns whether
// t is reachable in the residual network.
func (cn *CostNetwork) dijkstra(s, t int) bool {
	for i := range cn.dist {
		cn.dist[i] = infCost
		cn.prevArc[i] = -1
	}
	cn.dist[s] = 0
	q := costPQ{{node: s, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(costItem)
		if it.dist > cn.dist[it.node] {
			continue
		}
		u := it.node
		for _, h := range cn.head[u] {
			if cn.capArr[h] <= 0 {
				continue
			}
			v := cn.toArr[h]
			nd := cn.dist[u] + cn.cost[h] + cn.potential[u] - cn.potential[v]
			if nd < cn.dist[v] {
				cn.dist[v] = nd
				cn.prevArc[v] = h
				heap.Push(&q, costItem{node: v, dist: nd})
			}
		}
	}
	return cn.dist[t] < infCost
}
