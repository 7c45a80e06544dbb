// Package eval is the benchmark harness for the paper's evaluation
// (Section IV): it builds scenarios with the paper's parameters, runs
// approAlg against the four baselines, sweeps the figure parameters
// (K for Fig. 4, n for Fig. 5, s for Fig. 6), averages over seeds, and
// formats the resulting series as aligned tables or CSV.
package eval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/uav-coverage/uavnet/internal/baseline"
	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
	"github.com/uav-coverage/uavnet/internal/portfolio"
	"github.com/uav-coverage/uavnet/internal/workload"
)

// Params describe one generated scenario. Zero fields take the paper's
// defaults from Section IV-A.
type Params struct {
	// AreaSide is the square disaster-area side in meters (default 3000).
	AreaSide float64
	// CellSide is the grid resolution lambda in meters (default 500; the
	// paper leaves m unspecified — see DESIGN.md for the substitution note).
	CellSide float64
	// Altitude is H_uav in meters (default 300).
	Altitude float64
	// UAVRange is R_uav in meters (default 600).
	UAVRange float64
	// UserRange is R_user in meters (default 500).
	UserRange float64
	// N is the number of users (default 3000).
	N int
	// K is the number of UAVs (default 20).
	K int
	// CMin and CMax bound the per-UAV capacities (defaults 50 and 300).
	CMin, CMax int
	// MinRateBps is every user's data-rate requirement (default 2000).
	MinRateBps float64
	// TxPowerDBm and TxGainDBi describe the base stations (defaults 30, 3).
	TxPowerDBm, TxGainDBi float64
	// Distribution selects the user placement model (default FatTailed).
	Distribution workload.Distribution
	// Seed drives user placement and fleet sampling.
	Seed int64
	// SnapSide, when positive, snaps user positions to the centers of a grid
	// with this side (workload.UserOptions.SnapSide) — the demand-homogeneous
	// regime in which aggregation is exact. Zero leaves positions continuous.
	SnapSide float64
}

// WithDefaults fills zero fields with the paper's Section IV-A values.
func (p Params) WithDefaults() Params {
	if p.AreaSide == 0 {
		p.AreaSide = 3000
	}
	if p.CellSide == 0 {
		p.CellSide = 500
	}
	if p.Altitude == 0 {
		p.Altitude = 300
	}
	if p.UAVRange == 0 {
		p.UAVRange = 600
	}
	if p.UserRange == 0 {
		p.UserRange = 500
	}
	if p.N == 0 {
		p.N = 3000
	}
	if p.K == 0 {
		p.K = 20
	}
	if p.CMin == 0 {
		p.CMin = 50
	}
	if p.CMax == 0 {
		p.CMax = 300
	}
	if p.MinRateBps == 0 {
		p.MinRateBps = 2000
	}
	if p.TxPowerDBm == 0 {
		p.TxPowerDBm = 30
	}
	if p.TxGainDBi == 0 {
		p.TxGainDBi = 3
	}
	return p
}

// BuildInstance generates the scenario described by p and precomputes its
// algorithm instance.
func BuildInstance(p Params) (*core.Instance, error) {
	sc, err := BuildScenario(p)
	if err != nil {
		return nil, err
	}
	return core.NewInstance(sc)
}

// BuildAggregateInstance generates the scenario described by p and
// precomputes its demand-aggregated instance (core.NewAggregateInstance).
// This is the million-user path: the scenario still carries every individual
// user, but subset evaluation runs over demand cells.
func BuildAggregateInstance(p Params, opts core.AggOptions) (*core.Instance, error) {
	sc, err := BuildScenario(p)
	if err != nil {
		return nil, err
	}
	return core.NewAggregateInstance(sc, opts)
}

// BuildScenario generates the scenario described by p without precomputing
// an instance, so callers can choose the per-user or aggregated path.
func BuildScenario(p Params) (*core.Scenario, error) {
	p = p.WithDefaults()
	grid := geom.Grid{Length: p.AreaSide, Width: p.AreaSide, Side: p.CellSide, Altitude: p.Altitude}
	positions, err := workload.UsersWithOptions(grid, p.N, p.Distribution, p.Seed,
		workload.UserOptions{SnapSide: p.SnapSide})
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	caps, err := workload.Capacities(p.K, p.CMin, p.CMax, p.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	sc := &core.Scenario{
		Grid:     grid,
		UAVRange: p.UAVRange,
		Channel:  channel.DefaultParams(),
	}
	for _, pos := range positions {
		sc.Users = append(sc.Users, core.User{Pos: pos, MinRateBps: p.MinRateBps})
	}
	for i, c := range caps {
		sc.UAVs = append(sc.UAVs, core.UAV{
			Name:      fmt.Sprintf("uav-%d", i),
			Capacity:  c,
			Tx:        channel.Transmitter{PowerDBm: p.TxPowerDBm, AntennaGainDBi: p.TxGainDBi},
			UserRange: p.UserRange,
		})
	}
	return sc, nil
}

// Algorithm is one competitor in an experiment. Run honors its context for
// approAlg (cancellation stops the enumeration mid-run); baselines check it
// only between runs.
type Algorithm struct {
	Name string
	Run  func(context.Context, *core.Instance) (*core.Deployment, error)
}

// ApproAlg wraps core.Approx with fixed options under the paper's name.
// literal selects the pseudocode-exact behaviour (grounded leftovers).
func ApproAlg(s, workers, maxSubsets int, literal bool) Algorithm {
	return Algorithm{
		Name: "approAlg",
		Run: func(ctx context.Context, in *core.Instance) (*core.Deployment, error) {
			return core.Approx(ctx, in, core.Options{
				S: s, Workers: workers, MaxSubsets: maxSubsets, GroundLeftovers: literal,
			})
		},
	}
}

// SolverAlg wraps portfolio.Race as an Algorithm under the solver's name
// ("anneal" | "tabu" | "grasp" | "genetic" | "portfolio"): the figure sweeps
// can then compare a budgeted metaheuristic against the baselines on
// instances whose C(m,s) puts the enumeration out of reach.
func SolverAlg(solver string, s int, budget int64, literal bool, seed int64) Algorithm {
	return Algorithm{
		Name: solver,
		Run: func(ctx context.Context, in *core.Instance) (*core.Deployment, error) {
			return portfolio.Race(ctx, in, core.Options{
				S: s, Solver: solver, SolverBudget: budget,
				GroundLeftovers: literal, Seed: seed,
			})
		},
	}
}

// Algorithms returns approAlg followed by the paper's four baselines.
func Algorithms(s, workers, maxSubsets int) ([]Algorithm, error) {
	return AlgorithmsLiteral(s, workers, maxSubsets, false)
}

// AlgorithmsLiteral is Algorithms with an explicit pseudocode-exact switch.
func AlgorithmsLiteral(s, workers, maxSubsets int, literal bool) ([]Algorithm, error) {
	return algorithmsForNames(baseline.Names(), s, workers, maxSubsets, literal)
}

// algorithmsForNames assembles approAlg plus the named baselines; an
// unknown baseline name surfaces as an error rather than a panic, so a
// harness misconfiguration fails the run instead of crashing the process.
func algorithmsForNames(names []string, s, workers, maxSubsets int, literal bool) ([]Algorithm, error) {
	algs := []Algorithm{ApproAlg(s, workers, maxSubsets, literal)}
	for _, name := range names {
		run, err := baseline.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
		algs = append(algs, Algorithm{Name: name, Run: adaptBaseline(run)})
	}
	return algs, nil
}

// adaptBaseline lifts a context-free baseline into the Algorithm contract:
// the context is checked once up front, which is all a single-pass
// heuristic needs for a sweep to stop between runs.
func adaptBaseline(run func(*core.Instance) (*core.Deployment, error)) func(context.Context, *core.Instance) (*core.Deployment, error) {
	return func(ctx context.Context, in *core.Instance) (*core.Deployment, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return run(in)
	}
}

// Point is one x-position of a series: per-algorithm mean served users,
// standard deviation across seeds, and mean wall-clock time.
type Point struct {
	X         float64
	Served    map[string]float64
	ServedStd map[string]float64
	Elapsed   map[string]time.Duration
}

// Series is one experiment's output, ready for formatting.
type Series struct {
	Title      string
	XLabel     string
	Algorithms []string
	Points     []Point
}

// Config drives an experiment run.
type Config struct {
	// Base holds the fixed scenario parameters; the swept field is
	// overridden per point.
	Base Params
	// S is approAlg's anchor parameter (default 3).
	S int
	// Workers is approAlg's parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxSubsets caps approAlg's enumeration (0 = exhaustive).
	MaxSubsets int
	// Literal runs approAlg exactly as the paper's pseudocode: UAVs beyond
	// the q_j network members stay grounded instead of extending the
	// network greedily.
	Literal bool
	// Solver, when a metaheuristic name ("anneal" | "tabu" | "grasp" |
	// "genetic" | "portfolio"), replaces the approAlg enumeration slot in the
	// figure sweeps (Figs. 4–6) with portfolio.Race under SolverBudget
	// evaluations per member. Empty or "enum" keeps the enumeration.
	// Ablation and Heterogeneity always use the enumeration — they study its
	// internal switches.
	Solver string
	// SolverBudget caps the evaluations per solver member (0 = the
	// portfolio default).
	SolverBudget int64
	// Seeds are averaged over; empty means the single Base.Seed.
	Seeds []int64
	// Progress, when non-nil, receives one line per completed run.
	Progress func(format string, args ...any)
	// Context, when non-nil, bounds the whole experiment: cancellation or a
	// deadline stops the current approAlg run mid-enumeration and aborts
	// the sweep with the context's error. Nil means context.Background().
	Context context.Context
}

func (c Config) withDefaults() Config {
	if c.S == 0 {
		c.S = 3
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{c.Base.Seed}
	}
	return c
}

func (c Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// algorithms assembles the competitor list for anchor parameter s: the
// enumeration — or the configured metaheuristic solver in its slot — plus
// the paper's four baselines.
func (c Config) algorithms(s int) ([]Algorithm, error) {
	algs, err := AlgorithmsLiteral(s, c.Workers, c.MaxSubsets, c.Literal)
	if err != nil {
		return nil, err
	}
	if c.Solver != "" && c.Solver != "enum" {
		algs[0] = SolverAlg(c.Solver, s, c.SolverBudget, c.Literal, c.Base.Seed)
	}
	return algs, nil
}

func (c Config) context() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background() //uavlint:allow ctxthread -- nil-ctx normalization at the API boundary
}

// sweep runs all algorithms at each x-value, with mutate applying x to the
// parameters, and averages over the configured seeds.
func sweep(cfg Config, title, xLabel string, xs []float64, algs []Algorithm,
	mutate func(Params, float64) Params) (*Series, error) {
	cfg = cfg.withDefaults()
	ctx := cfg.context()
	series := &Series{Title: title, XLabel: xLabel}
	for _, a := range algs {
		series.Algorithms = append(series.Algorithms, a.Name)
	}
	for _, x := range xs {
		pt := Point{
			X:         x,
			Served:    map[string]float64{},
			ServedStd: map[string]float64{},
			Elapsed:   map[string]time.Duration{},
		}
		sumSq := map[string]float64{}
		for _, seed := range cfg.Seeds {
			p := mutate(cfg.Base.WithDefaults(), x)
			p.Seed = seed
			in, err := BuildInstance(p)
			if err != nil {
				return nil, err
			}
			for _, alg := range algs {
				start := time.Now() //uavlint:allow timenow -- elapsed-time metric is the harness's output
				dep, err := alg.Run(ctx, in)
				if err != nil {
					return nil, fmt.Errorf("eval: %s at %s=%g: %w", alg.Name, xLabel, x, err)
				}
				elapsed := time.Since(start) //uavlint:allow timenow -- elapsed-time metric is the harness's output
				pt.Served[alg.Name] += float64(dep.Served)
				sumSq[alg.Name] += float64(dep.Served) * float64(dep.Served)
				pt.Elapsed[alg.Name] += elapsed
				cfg.progress("%s: %s=%g seed=%d served=%d elapsed=%s",
					alg.Name, xLabel, x, seed, dep.Served, elapsed.Round(time.Millisecond))
			}
		}
		nSeeds := float64(len(cfg.Seeds))
		for name := range pt.Served {
			pt.Served[name] /= nSeeds
			pt.Elapsed[name] = time.Duration(float64(pt.Elapsed[name]) / nSeeds)
			if nSeeds > 1 {
				variance := sumSq[name]/nSeeds - pt.Served[name]*pt.Served[name]
				if variance < 0 {
					variance = 0
				}
				pt.ServedStd[name] = math.Sqrt(variance)
			}
		}
		series.Points = append(series.Points, pt)
	}
	return series, nil
}

// Fig4 reproduces Fig. 4: served users vs. the number of UAVs K
// (paper: K = 2..20, n = 3000, s = 3).
func Fig4(cfg Config, ks []int) (*Series, error) {
	cfg = cfg.withDefaults()
	xs := toFloats(ks)
	algs, err := cfg.algorithms(cfg.S)
	if err != nil {
		return nil, err
	}
	return sweep(cfg, "Fig. 4: served users vs number of UAVs", "K", xs, algs,
		func(p Params, x float64) Params { p.K = int(x); return p })
}

// Fig5 reproduces Fig. 5: served users vs. the number of users n
// (paper: n = 1000..3000, K = 20, s = 3).
func Fig5(cfg Config, ns []int) (*Series, error) {
	cfg = cfg.withDefaults()
	xs := toFloats(ns)
	algs, err := cfg.algorithms(cfg.S)
	if err != nil {
		return nil, err
	}
	return sweep(cfg, "Fig. 5: served users vs number of users", "n", xs, algs,
		func(p Params, x float64) Params { p.N = int(x); return p })
}

// Fig6 reproduces Fig. 6(a) and 6(b): served users and running time vs. the
// parameter s (paper: s = 1..4, K = 20, n = 3000). The baselines do not
// depend on s; they are re-run at each point so their lines appear exactly
// as in the paper.
func Fig6(cfg Config, ss []int) (*Series, error) {
	cfg = cfg.withDefaults()
	var pts []Point
	series := &Series{Title: "Fig. 6: quality and running time vs s", XLabel: "s"}
	for _, s := range ss {
		algs, err := cfg.algorithms(s)
		if err != nil {
			return nil, err
		}
		if series.Algorithms == nil {
			for _, a := range algs {
				series.Algorithms = append(series.Algorithms, a.Name)
			}
		}
		sub, err := sweep(cfg, "", "s", []float64{float64(s)}, algs,
			func(p Params, _ float64) Params { return p })
		if err != nil {
			return nil, err
		}
		pts = append(pts, sub.Points...)
	}
	series.Points = pts
	return series, nil
}

func toFloats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// FormatServed renders the served-users table (Figs. 4, 5, 6(a)); when a
// point carries a cross-seed standard deviation, cells show "mean±std".
func (s *Series) FormatServed() string {
	return s.format(func(p Point, alg string) string {
		if std, ok := p.ServedStd[alg]; ok && std > 0 {
			return fmt.Sprintf("%.0f±%.0f", p.Served[alg], std)
		}
		return fmt.Sprintf("%.0f", p.Served[alg])
	})
}

// FormatElapsed renders the running-time table (Fig. 6(b)).
func (s *Series) FormatElapsed() string {
	return s.format(func(p Point, alg string) string {
		return p.Elapsed[alg].Round(time.Millisecond).String()
	})
}

func (s *Series) format(cell func(Point, string) string) string {
	headers := append([]string{s.XLabel}, s.Algorithms...)
	rows := [][]string{headers}
	for _, p := range s.Points {
		row := []string{fmt.Sprintf("%g", p.X)}
		for _, alg := range s.Algorithms {
			row = append(row, cell(p, alg))
		}
		rows = append(rows, row)
	}
	widths := make([]int, len(headers))
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	for ri, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i, w := range widths {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", w))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// CSV renders the series as comma-separated values with served users and
// elapsed milliseconds per algorithm.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString(s.XLabel)
	for _, alg := range s.Algorithms {
		fmt.Fprintf(&b, ",%s_served,%s_ms", alg, alg)
	}
	b.WriteByte('\n')
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g", p.X)
		for _, alg := range s.Algorithms {
			fmt.Fprintf(&b, ",%.1f,%.1f", p.Served[alg], float64(p.Elapsed[alg].Microseconds())/1000)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Improvement returns approAlg's relative improvement over the best
// baseline at the given point index, e.g. 0.22 for the paper's 22%.
func (s *Series) Improvement(pointIdx int) (float64, error) {
	if pointIdx < 0 || pointIdx >= len(s.Points) {
		return 0, fmt.Errorf("eval: point index %d out of range", pointIdx)
	}
	p := s.Points[pointIdx]
	apro, ok := p.Served["approAlg"]
	if !ok {
		return 0, fmt.Errorf("eval: series has no approAlg column")
	}
	bestBase := 0.0
	names := make([]string, 0, len(p.Served))
	for name := range p.Served {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name != "approAlg" && p.Served[name] > bestBase {
			bestBase = p.Served[name]
		}
	}
	if bestBase == 0 {
		return 0, fmt.Errorf("eval: no baseline served any users")
	}
	return apro/bestBase - 1, nil
}
