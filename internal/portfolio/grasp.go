package portfolio

import (
	"encoding/json"
	"sort"

	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/match"
)

// graspSolver is GRASP: greedy randomized construction followed by a local
// search, restarted whenever the search stalls. Construction grows an anchor
// set cell by cell, scoring candidates by the marginal demand coverage their
// eligibility mask adds over the set's accumulated union (pure bitset
// popcounts — no evaluator calls) and drawing uniformly from the restricted
// candidate list of near-best cells; only the finished construction costs one
// exact evaluation. The local search is first-improvement hill climbing over
// the shared move neighborhood; after graspStall consecutive non-improving
// moves the incumbent is declared a local optimum and the next step restarts.
type graspSolver struct {
	*search
	stall int // consecutive non-improving evaluations on the incumbent
	// Construction scratch (rebuilt within one step; not checkpointed).
	union  match.Bitset
	cand   []int
	scores []int
}

const (
	// graspStall is the non-improvement streak that triggers a restart.
	graspStall = 30
	// graspRCL is the restricted-candidate-list fraction: candidates scoring
	// within this fraction of the best marginal coverage are drawn from
	// uniformly.
	graspRCL = 0.8
)

func newGrasp(s *search) *graspSolver {
	return &graspSolver{search: s, union: match.NewBitset(s.p.in.NumNodes())}
}

// construct builds one greedy-randomized admissible subset. The coverage
// heuristic uses the eligibility mask of the highest-capacity UAV's class —
// the first greedy round's view of the world — which is a cheap, sound proxy
// for the exact score.
func (g *graspSolver) construct() []int {
	p := g.p
	comp := p.comps[g.rng.Intn(len(p.comps))]
	class := p.in.ClassOf[p.in.ByCapacity[0]]
	for i := range g.union {
		g.union[i] = 0
	}
	a := make([]int, 0, p.s)
	for len(a) < p.s {
		// Score every hop-feasible unused cell by marginal coverage.
		g.cand = g.cand[:0]
		g.scores = g.scores[:0]
		best := -1
		for _, c := range comp {
			if contains(a, c) || !p.hopOK(c, a) {
				continue
			}
			sc := match.AndNotCount(p.in.EligMask[class][c], g.union)
			g.cand = append(g.cand, c)
			g.scores = append(g.scores, sc)
			if sc > best {
				best = sc
			}
		}
		if len(g.cand) == 0 {
			// Dead end (hop bound exhausted the component): fall back to the
			// deterministic seed to stay admissible.
			return p.seedSubset(g.rng.Intn(p.m))
		}
		// Restricted candidate list: all cells within graspRCL of the best
		// marginal score.
		cut := int(graspRCL * float64(best))
		w := 0
		for i, c := range g.cand {
			if g.scores[i] >= cut {
				g.cand[w] = c
				w++
			}
		}
		chosen := g.cand[g.rng.Intn(w)]
		a = append(a, chosen)
		sort.Ints(a)
		g.union.Or(p.in.EligMask[class][chosen])
	}
	return a
}

func (g *graspSolver) Step() (bool, error) {
	if g.remaining() <= 0 || g.steps >= g.stepCap() {
		return false, nil
	}
	g.steps++
	if g.cur == nil {
		a := g.construct()
		if a == nil {
			return false, errNoSubset(g.p.s)
		}
		served, err := g.evaluate(a)
		if err != nil {
			return false, err
		}
		g.cur = append(g.cur[:0], a...)
		g.curServed = served
		g.stall = 0
		return true, nil
	}
	prop := g.propose()
	if prop == nil {
		g.stall++
	} else {
		served, err := g.evaluate(prop)
		if err != nil {
			return false, err
		}
		if served > g.curServed {
			g.accept(prop, served)
			g.stall = 0
		} else {
			g.stall++
		}
	}
	if g.stall >= graspStall {
		g.cur = nil // local optimum: restart on the next step
		g.curServed = infeasibleServed
		g.stall = 0
	}
	return true, nil
}

// graspExtra is the member-specific checkpoint blob. The union bitset and
// candidate scratch live only within one construction step, so the stall
// counter is the whole member-specific state.
type graspExtra struct {
	Stall int `json:"stall"`
}

func (g *graspSolver) State() (core.SolverState, error) {
	return g.baseState(graspExtra{Stall: g.stall})
}

func (g *graspSolver) Restore(st core.SolverState) error {
	raw, err := g.restoreBase(st)
	if err != nil {
		return err
	}
	var ex graspExtra
	if err := json.Unmarshal(raw, &ex); err != nil {
		return err
	}
	g.stall = ex.Stall
	return nil
}
