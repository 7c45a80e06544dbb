package eval

import (
	"fmt"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

// Ablation measures the effect of the two implementation choices that
// DESIGN.md calls out on top of the paper's pseudocode:
//
//   - sound anchor-subset pruning (time-only: results are provably equal);
//   - the leftover-UAV extension pass (quality: the literal pseudocode
//     grounds K - q_j UAVs).
//
// plus the sampled-enumeration escape hatch. It runs approAlg in each
// configuration on the same scenario and reports served users and time.
func Ablation(cfg Config) (*Series, error) {
	cfg = cfg.withDefaults()
	variants := []column{
		{label: "full"},
		{label: "no-prune", opts: uavnet.Options{DisablePrune: true}},
		{label: "ground-leftovers", opts: uavnet.Options{GroundLeftovers: true}},
		{label: "sampled-10pct", opts: uavnet.Options{MaxSubsets: -1}}, // resolved below
	}
	series := &Series{
		Title:  "Ablation: approAlg implementation choices",
		XLabel: "variant",
	}
	for _, v := range variants {
		series.Algorithms = append(series.Algorithms, v.label)
	}
	pt := Point{X: 0, Served: map[string]float64{}, Elapsed: map[string]time.Duration{}}
	for _, seed := range cfg.Seeds {
		p := cfg.Base.WithDefaults()
		p.Seed = seed
		in, err := uavnet.GenerateInstance(p)
		if err != nil {
			return nil, err
		}
		// Resolve the 10% sampling cap against this instance's C(m, s).
		mSubsets := totalSubsets(in.Scenario.M(), cfg.S)
		for _, v := range variants {
			v.alg = "approAlg"
			v.opts.S = cfg.S
			v.opts.Workers = cfg.Workers
			if v.opts.MaxSubsets == -1 {
				v.opts.MaxSubsets = int(mSubsets/10) + 1
			} else if cfg.MaxSubsets > 0 {
				v.opts.MaxSubsets = cfg.MaxSubsets
			}
			dep, elapsed, err := cfg.deploy(v, in)
			if err != nil {
				return nil, fmt.Errorf("eval: ablation %s: %w", v.label, err)
			}
			pt.Served[v.label] += float64(dep.Served)
			pt.Elapsed[v.label] += elapsed
			cfg.progress("ablation %s: seed=%d served=%d elapsed=%s",
				v.label, seed, dep.Served, elapsed.Round(time.Millisecond))
		}
	}
	nSeeds := float64(len(cfg.Seeds))
	for name := range pt.Served {
		pt.Served[name] /= nSeeds
		pt.Elapsed[name] = time.Duration(float64(pt.Elapsed[name]) / nSeeds)
	}
	series.Points = []Point{pt}
	return series, nil
}

// totalSubsets mirrors the core package's binomial for sizing the sampled
// variant; values saturate far above any realistic cap.
func totalSubsets(m, s int) int64 {
	if s < 0 || s > m {
		return 0
	}
	if s > m-s {
		s = m - s
	}
	result := int64(1)
	for i := 1; i <= s; i++ {
		result = result * int64(m-s+i) / int64(i)
		if result < 0 {
			return int64(^uint64(0) >> 1)
		}
	}
	return result
}

// Heterogeneity sweeps the fleet's capacity spread at constant total
// capacity: spread 0 is a homogeneous fleet (every UAV at the mean), spread
// 1 is the paper's full [C_min, C_max] range. It quantifies when
// heterogeneity-awareness matters: the gap between approAlg and the best
// capacity-oblivious baseline should widen with the spread. approAlg runs
// the enumeration with the leftover extension on, whatever cfg.Solver and
// cfg.Literal say.
func Heterogeneity(cfg Config, spreads []float64) (*Series, error) {
	cfg = cfg.withDefaults()
	cols := columns(uavnet.Options{S: cfg.S, Workers: cfg.Workers, MaxSubsets: cfg.MaxSubsets})
	return sweep(cfg, "Extension: served users vs fleet capacity spread", "spread", spreads,
		func(float64) []column { return cols },
		func(p uavnet.ScenarioSpec, x float64) uavnet.ScenarioSpec {
			p = p.WithDefaults()
			mean := (p.CMin + p.CMax) / 2
			halfRange := float64(p.CMax-p.CMin) / 2 * x
			p.CMin = mean - int(halfRange)
			p.CMax = mean + int(halfRange)
			if p.CMin < 1 {
				p.CMin = 1
			}
			if p.CMax < p.CMin {
				p.CMax = p.CMin
			}
			return p
		})
}
