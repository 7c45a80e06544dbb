// Fixture for the epochscratch analyzer.
package fixture

// scratch mirrors core.SubsetEvaluator: tables are never cleared, an epoch
// bump invalidates every stamp at once.
//
//uavlint:scratch epoch=epoch tables=claimed,used
type scratch struct {
	claimed []int64
	used    []int64
	epoch   int64
	other   []int64
}

// ok shows the three sanctioned access shapes.
func (s *scratch) ok(u int) bool {
	if s.claimed[u] == s.epoch {
		return true
	}
	s.claimed[u] = s.epoch
	return s.used[u] != s.epoch
}

func (s *scratch) bump() { s.epoch++ }

func (s *scratch) badLiteral(u int) bool {
	return s.claimed[u] != 0 // want `scratch table s.claimed is epoch-stamped`
}

func (s *scratch) badCopy(u int) int64 {
	return s.used[u] // want `scratch table s.used is epoch-stamped`
}

func (s *scratch) badStore(u int) {
	s.claimed[u] = 7 // want `scratch table s.claimed is epoch-stamped`
}

func (s *scratch) badIncr(u int) {
	s.used[u]++ // want `scratch table s.used is epoch-stamped`
}

// otherField is not listed in tables=: unchecked.
func (s *scratch) otherField(u int) int64 {
	return s.other[u]
}

// cross compares against another instance's epoch, which sanctions nothing.
func cross(a, b *scratch, u int) bool {
	return a.claimed[u] == b.epoch // want `scratch table a.claimed`
}

// badMarker names an epoch field the struct does not have.
//
//uavlint:scratch epoch=missing tables=claimed
type badMarker struct { // want `no field named "missing"`
	claimed []int64
}
