// Package eval is the benchmark harness for the paper's evaluation
// (Section IV): it builds scenarios with the paper's parameters, runs
// approAlg against the four baselines, sweeps the figure parameters
// (K for Fig. 4, n for Fig. 5, s for Fig. 6), averages over seeds, and
// formats the resulting series as aligned tables or CSV. It is a client of
// the uavnet facade: every run is one uavnet.DeployWithContext call.
package eval

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	uavnet "github.com/uav-coverage/uavnet"
)

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
	Base uavnet.ScenarioSpec
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
	// figure sweeps (Figs. 4–6) with that solver (uavnet.Options.Solver)
	// under SolverBudget evaluations per member, seeded with Base.Seed.
	// Empty or "enum" keeps the enumeration. Ablation and Heterogeneity
	// always use the enumeration — they study its internal switches.
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

func (c Config) context() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background() //uavlint:allow ctxthread -- nil-ctx normalization at the API boundary
}

// column is one competitor of a series: the facade algorithm alg
// ("approAlg" or a baseline name) run with opts, reported under label.
type column struct {
	label, alg string
	opts       uavnet.Options
}

// columns lists the approAlg slot under opts followed by the paper's four
// baselines. A metaheuristic opts.Solver labels the slot with its name.
func columns(opts uavnet.Options) []column {
	label := "approAlg"
	if !opts.SolverIsEnum() {
		label = opts.Solver
	}
	cols := []column{{label: label, alg: "approAlg", opts: opts}}
	for _, name := range uavnet.AlgorithmNames()[1:] {
		cols = append(cols, column{label: name, alg: name})
	}
	return cols
}

// figureColumns is the competitor list of Figs. 4–6 for anchor parameter s:
// the enumeration, or the configured metaheuristic in its slot, plus the
// baselines.
func (c Config) figureColumns(s int) []column {
	opts := uavnet.Options{S: s, Solver: c.Solver, SolverBudget: c.SolverBudget,
		GroundLeftovers: c.Literal, Seed: c.Base.Seed}
	if opts.SolverIsEnum() {
		opts = uavnet.Options{S: s, Workers: c.Workers, MaxSubsets: c.MaxSubsets, GroundLeftovers: c.Literal}
	}
	return columns(opts)
}

// deploy runs one column on in through the facade and times it.
func (c Config) deploy(col column, in *uavnet.Instance) (*uavnet.Deployment, time.Duration, error) {
	start := time.Now() //uavlint:allow timenow -- elapsed-time metric is the harness's output
	dep, err := uavnet.DeployWithContext(c.context(), col.alg, in, col.opts)
	return dep, time.Since(start), err //uavlint:allow timenow -- elapsed-time metric is the harness's output
}

// sweep runs the columns cols(x) at each x-value, with mutate applying x to
// the scenario, and averages over the configured seeds.
func sweep(cfg Config, title, xLabel string, xs []float64, cols func(x float64) []column,
	mutate func(uavnet.ScenarioSpec, float64) uavnet.ScenarioSpec) (*Series, error) {
	cfg = cfg.withDefaults()
	series := &Series{Title: title, XLabel: xLabel}
	for _, x := range xs {
		pt := Point{
			X:         x,
			Served:    map[string]float64{},
			ServedStd: map[string]float64{},
			Elapsed:   map[string]time.Duration{},
		}
		sumSq := map[string]float64{}
		point := cols(x)
		if series.Algorithms == nil {
			for _, col := range point {
				series.Algorithms = append(series.Algorithms, col.label)
			}
		}
		for _, seed := range cfg.Seeds {
			p := mutate(cfg.Base.WithDefaults(), x)
			p.Seed = seed
			in, err := uavnet.GenerateInstance(p)
			if err != nil {
				return nil, err
			}
			for _, col := range point {
				dep, elapsed, err := cfg.deploy(col, in)
				if err != nil {
					return nil, fmt.Errorf("eval: %s at %s=%g: %w", col.label, xLabel, x, err)
				}
				pt.Served[col.label] += float64(dep.Served)
				sumSq[col.label] += float64(dep.Served) * float64(dep.Served)
				pt.Elapsed[col.label] += elapsed
				cfg.progress("%s: %s=%g seed=%d served=%d elapsed=%s",
					col.label, xLabel, x, seed, dep.Served, elapsed.Round(time.Millisecond))
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
	return sweep(cfg, "Fig. 4: served users vs number of UAVs", "K", toFloats(ks),
		func(float64) []column { return cfg.figureColumns(cfg.S) },
		func(p uavnet.ScenarioSpec, x float64) uavnet.ScenarioSpec { p.K = int(x); return p })
}

// Fig5 reproduces Fig. 5: served users vs. the number of users n
// (paper: n = 1000..3000, K = 20, s = 3).
func Fig5(cfg Config, ns []int) (*Series, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, "Fig. 5: served users vs number of users", "n", toFloats(ns),
		func(float64) []column { return cfg.figureColumns(cfg.S) },
		func(p uavnet.ScenarioSpec, x float64) uavnet.ScenarioSpec { p.N = int(x); return p })
}

// Fig6 reproduces Fig. 6(a) and 6(b): served users and running time vs. the
// parameter s (paper: s = 1..4, K = 20, n = 3000). The baselines do not
// depend on s; they are re-run at each point so their lines appear exactly
// as in the paper.
func Fig6(cfg Config, ss []int) (*Series, error) {
	cfg = cfg.withDefaults()
	return sweep(cfg, "Fig. 6: quality and running time vs s", "s", toFloats(ss),
		func(x float64) []column { return cfg.figureColumns(int(x)) },
		func(p uavnet.ScenarioSpec, _ float64) uavnet.ScenarioSpec { return p })
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
