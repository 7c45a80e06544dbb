package match

import (
	"testing"

	"github.com/uav-coverage/uavnet/internal/assign"
)

// decodeFuzzProblem maps arbitrary fuzz bytes onto a small Problem with the
// eligibility invariant the matcher documents (sorted ascending, no
// duplicates): each station's eligible set is read as a user bitmask, so the
// lists come out sorted for free.
func decodeFuzzProblem(data []byte) (assign.Problem, bool) {
	if len(data) < 2 {
		return assign.Problem{}, false
	}
	p := assign.Problem{NumUsers: 1 + int(data[0])%24}
	stations := 1 + int(data[1])%6
	pos := 2
	maskBytes := (p.NumUsers + 7) / 8
	for j := 0; j < stations; j++ {
		if pos >= len(data) {
			break
		}
		cap := int(data[pos]) % 5
		pos++
		var el []int
		for u := 0; u < p.NumUsers; u++ {
			byteIdx := pos + u/8
			if byteIdx < len(data) && data[byteIdx]&(1<<(u%8)) != 0 {
				el = append(el, u)
			}
		}
		pos += maskBytes
		p.Capacities = append(p.Capacities, cap)
		p.Eligible = append(p.Eligible, el)
	}
	if len(p.Capacities) == 0 {
		return assign.Problem{}, false
	}
	return p, true
}

// FuzzAssignDifferential cross-checks the incremental matcher against the
// flow-based reference, assign.Solve, on random problems: committing the stations one by one
// must serve exactly Solve's optimum, every speculative Gain must equal the
// realized Commit gain, and the matcher's per-station loads must respect
// capacities.
func FuzzAssignDifferential(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0b011, 2, 0b110})
	f.Add([]byte{10, 4, 2, 0xff, 0x01, 0, 0x00, 0x00, 3, 0xaa, 0x02, 1, 0x55, 0x01})
	f.Add([]byte{24, 6, 4, 0xff, 0xff, 0xff, 4, 0x0f, 0xf0, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := decodeFuzzProblem(data)
		if !ok {
			return
		}
		ref, err := assign.Solve(p)
		if err != nil {
			t.Fatalf("Solve rejected decoded problem: %v", err)
		}
		m, err := NewMatcher(p.NumUsers, len(p.Capacities))
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.Capacities {
			g, err := m.Gain(p.Capacities[j], p.Eligible[j])
			if err != nil {
				t.Fatalf("Gain(station %d): %v", j, err)
			}
			c, err := m.Commit(p.Capacities[j], p.Eligible[j])
			if err != nil {
				t.Fatalf("Commit(station %d): %v", j, err)
			}
			if g != c {
				t.Fatalf("station %d: Gain %d != Commit gain %d (p=%+v)", j, g, c, p)
			}
		}
		if m.Served() != ref.Served {
			t.Fatalf("matcher served %d, Solve served %d (p=%+v)", m.Served(), ref.Served, p)
		}
		// Capacity feasibility and owner/load consistency.
		loads := make([]int, len(p.Capacities))
		for u := 0; u < p.NumUsers; u++ {
			if k := m.Owner(u); k != Unassigned {
				loads[k]++
			}
		}
		for k, c := range p.Capacities {
			if loads[k] != m.Load(k) {
				t.Fatalf("station %d: Load() %d but %d owners (p=%+v)", k, m.Load(k), loads[k], p)
			}
			if loads[k] > c {
				t.Fatalf("station %d over capacity: %d > %d (p=%+v)", k, loads[k], c, p)
			}
		}
	})
}
