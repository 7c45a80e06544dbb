package graph

import (
	"fmt"
	"sort"
)

// MSTScratch holds the reusable working memory for repeated MST runs: the
// union-find forest, an edge buffer, and the output tree. One scratch per
// worker makes Kruskal allocation-free in steady state; the zero value is
// ready to use.
type MSTScratch struct {
	uf     UnionFind
	edges  []WeightedEdge
	tree   []WeightedEdge
	sorter edgeSorter
}

// CompleteHopMST builds the complete weighted graph over the terminals,
// where the weight of (t_i, t_j) is their hop distance read from the
// precomputed matrix hop[a][b], and returns its MST edges expressed in
// terminal indices (0..len(terminals)-1) together with the total hop weight.
// This is the G'_j / T'_j construction of Algorithm 2 (lines 13-14). It
// returns an error if some pair of terminals is disconnected. The returned
// slice is owned by the scratch and only valid until the next call.
func (s *MSTScratch) CompleteHopMST(hop [][]int, terminals []int) ([]WeightedEdge, float64, error) {
	k := len(terminals)
	if k <= 1 {
		return nil, 0, nil
	}
	s.edges = s.edges[:0]
	for i := 0; i < k; i++ {
		di := hop[terminals[i]]
		for j := i + 1; j < k; j++ {
			d := di[terminals[j]]
			if d == Unreachable {
				return nil, 0, fmt.Errorf("graph: terminals %d and %d are disconnected", terminals[i], terminals[j])
			}
			s.edges = append(s.edges, WeightedEdge{U: i, V: j, Weight: float64(d)})
		}
	}
	return s.MST(k, s.edges)
}

// MST computes a minimum spanning tree of the weighted graph on n nodes given
// by edges, using Kruskal's algorithm, and returns the chosen edges and their
// total weight. Ties among equal weights break by (Weight, U, V), so results
// are reproducible. It returns an error if the edges do not connect all n
// nodes. edges is sorted in place (the caller relinquishes its order), the
// union-find forest is reset rather than reallocated, and tree edges are
// appended into the scratch's output buffer, which the returned slice aliases
// until the next call.
func (s *MSTScratch) MST(n int, edges []WeightedEdge) ([]WeightedEdge, float64, error) {
	if n <= 0 {
		return nil, 0, nil
	}
	s.sorter.es = edges
	sort.Sort(&s.sorter) // pointer receiver: no per-call interface allocation
	s.sorter.es = nil
	s.uf.Reset(n)
	s.tree = s.tree[:0]
	var total float64
	for _, e := range edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, 0, fmt.Errorf("graph: MST edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if s.uf.Union(e.U, e.V) {
			s.tree = append(s.tree, e)
			total += e.Weight
			if len(s.tree) == n-1 {
				break
			}
		}
	}
	if len(s.tree) != n-1 {
		return nil, 0, fmt.Errorf("graph: MST input on %d nodes is disconnected (%d components)", n, s.uf.Sets())
	}
	return s.tree, total, nil
}

// edgeSorter sorts WeightedEdges by (Weight, U, V) without the closure
// allocation of sort.Slice.
type edgeSorter struct{ es []WeightedEdge }

func (s *edgeSorter) Len() int { return len(s.es) }
func (s *edgeSorter) Less(i, j int) bool {
	a, b := s.es[i], s.es[j]
	if a.Weight != b.Weight {
		return a.Weight < b.Weight
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}
func (s *edgeSorter) Swap(i, j int) { s.es[i], s.es[j] = s.es[j], s.es[i] }

// WeightedEdge is an undirected edge with a weight, used by the MST
// algorithms. In the deployment algorithm the weight is the minimum number of
// hops between two chosen hovering locations in the location graph G
// (Section III-E, construction of G'_j).
type WeightedEdge struct {
	U, V   int
	Weight float64
}
