package graph

// UnionFind is a disjoint-set forest with union by rank and path compression.
// It supports Kruskal's algorithm and connectivity bookkeeping.
type UnionFind struct {
	parent []int
	rank   []int
	sets   int
}

// Reset re-initializes the structure to n singleton sets, growing the
// backing arrays when needed but never shrinking them, so steady-state reuse
// across many MST runs is allocation-free.
func (uf *UnionFind) Reset(n int) {
	if cap(uf.parent) < n {
		uf.parent = make([]int, n)
		uf.rank = make([]int, n)
	}
	uf.parent = uf.parent[:n]
	uf.rank = uf.rank[:n]
	for i := range uf.parent {
		uf.parent[i] = i
		uf.rank[i] = 0
	}
	uf.sets = n
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]] // path halving
		x = uf.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false if they were already in the same set).
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (uf *UnionFind) Sets() int { return uf.sets }
