package verify

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/uav-coverage/uavnet/internal/baseline"
	"github.com/uav-coverage/uavnet/internal/bruteforce"
	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/workload"
)

// bruteforceCells is the largest candidate-cell count on which the
// differential harness calls the exhaustive optimum; above it the run only
// cross-checks feasibility.
const bruteforceCells = 8

// RandomScenario generates a small random problem instance, every draw
// taken from r so one seed reproduces the whole scenario. Grids range from
// 2x2 to 4x2 cells of 500 m, fleets hold 1-5 UAVs with capacities in [1,6]
// and mildly heterogeneous radios, and 4-40 users follow one of the three
// workload distributions with a zero or paper-default minimum rate.
func RandomScenario(r *rand.Rand) (*core.Scenario, error) {
	cols := 2 + r.Intn(3) // 2..4
	rows := 2
	grid := geom.Grid{
		Length:   float64(cols) * 500,
		Width:    float64(rows) * 500,
		Side:     500,
		Altitude: 300,
	}
	dist := []workload.Distribution{workload.FatTailed, workload.Uniform, workload.SingleHotspot}[r.Intn(3)]
	n := 4 + r.Intn(37)
	positions, err := workload.UsersRand(r, grid, n, dist, workload.UserOptions{})
	if err != nil {
		return nil, err
	}
	k := 1 + r.Intn(5)
	caps, err := workload.CapacitiesRand(r, k, 1, 6)
	if err != nil {
		return nil, err
	}

	// Half the scenarios use the paper's 2 kbps requirement so the channel
	// model gates eligibility; the rest make eligibility purely geometric.
	minRate := 0.0
	if r.Intn(2) == 0 {
		minRate = 2000
	}
	sc := &core.Scenario{
		Grid:     grid,
		UAVRange: 750, // adjacent and diagonal cells link
		Channel:  channel.DefaultParams(),
	}
	for _, p := range positions {
		sc.Users = append(sc.Users, core.User{Pos: p, MinRateBps: minRate})
	}
	for i, c := range caps {
		tx := channel.Transmitter{PowerDBm: 30, AntennaGainDBi: 3}
		if r.Intn(3) == 0 { // a weaker radio class in some fleets
			tx.PowerDBm = 24
		}
		sc.UAVs = append(sc.UAVs, core.UAV{
			Name:      fmt.Sprintf("uav-%d", i),
			Capacity:  c,
			Tx:        tx,
			UserRange: 300 + float64(r.Intn(3))*100, // 300..500 m
		})
	}
	return sc, nil
}

// DiffResult is one algorithm's outcome on one differential scenario.
type DiffResult struct {
	Algorithm string
	Served    int
	Report    Report
}

// Differential runs approAlg, every baseline, and (on instances with at
// most bruteforceCells cells) the exhaustive optimum on the scenario seeded
// by seed, checks every returned deployment against the oracle, and
// cross-checks approAlg against the Theorem 1 ratio. It returns the
// per-algorithm results; any oracle violation or broken guarantee comes
// back as an error naming the seed so the failure replays exactly. The
// context bounds the approAlg run (long fuzz campaigns abort cleanly).
//
//uavlint:allow testonly -- the harness behind TestDifferentialRandomScenarios, kept beside the oracle it drives
func Differential(ctx context.Context, seed int64) ([]DiffResult, error) {
	r := rand.New(rand.NewSource(seed))
	sc, err := RandomScenario(r)
	if err != nil {
		return nil, fmt.Errorf("seed %d: generate: %w", seed, err)
	}
	in, err := core.NewInstance(sc)
	if err != nil {
		return nil, fmt.Errorf("seed %d: instance: %w", seed, err)
	}

	s := 2
	if s > sc.K() {
		s = sc.K()
	}
	var results []DiffResult
	check := func(name string, dep *core.Deployment) error {
		rep := CheckDeployment(in, dep)
		results = append(results, DiffResult{Algorithm: name, Served: dep.Served, Report: rep})
		if !rep.OK() {
			return fmt.Errorf("seed %d: %s: %s", seed, name, rep)
		}
		return nil
	}

	apx, err := core.Approx(ctx, in, core.Options{S: s, Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("seed %d: approAlg: %w", seed, err)
	}
	if err := check("approAlg", apx); err != nil {
		return results, err
	}
	for _, name := range baseline.Names() {
		run, err := baseline.ByName(name)
		if err != nil {
			return results, fmt.Errorf("seed %d: %w", seed, err)
		}
		dep, err := run(in)
		if err != nil {
			return results, fmt.Errorf("seed %d: %s: %w", seed, name, err)
		}
		if err := check(name, dep); err != nil {
			return results, err
		}
	}

	if sc.M() > bruteforceCells {
		return results, nil
	}
	opt, err := bruteforce.Optimal(in)
	if err != nil {
		return results, fmt.Errorf("seed %d: bruteforce: %w", seed, err)
	}
	if err := check("bruteforce", opt); err != nil {
		return results, err
	}
	// No algorithm may beat the exhaustive optimum...
	for _, res := range results {
		if res.Served > opt.Served {
			return results, fmt.Errorf("seed %d: %s served %d > optimum %d",
				seed, res.Algorithm, res.Served, opt.Served)
		}
	}
	// ...and approAlg must clear the Theorem 1 ratio against it.
	ratio := core.ApproxRatio(sc.K(), s)
	if want := ratio * float64(opt.Served); float64(apx.Served) < want {
		return results, fmt.Errorf("seed %d: approAlg served %d < ratio bound %.3f (ratio %.3f x optimum %d)",
			seed, apx.Served, want, ratio, opt.Served)
	}
	return results, nil
}
