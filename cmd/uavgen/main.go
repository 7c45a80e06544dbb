// Command uavgen generates synthetic disaster-area scenarios as JSON files
// consumable by uavdeploy and the library's LoadScenario.
//
// Usage:
//
//	uavgen -out scenario.json -n 3000 -k 20 -seed 42
//	uavgen -out sparse.json -dist uniform -n 500 -k 8
//	uavgen -fingerprint scenario.json          # print an existing file's fingerprint
//	uavgen -out big.json -n 1000000 -snap 250 -agg-cell 250   # million-user aggregated workflow
//
// -snap S snaps every user position to the center of its S-meter cell, the
// regime in which demand aggregation is exact. -agg-cell S additionally
// prints the aggregate fingerprint for that demand-cell side — the value
// checkpoints taken under "uavdeploy -agg-cell S" are keyed on, so a resume
// against the wrong cell grid (or the per-user path) is rejected up front.
// Both flags also combine with -fingerprint to recompute the values for an
// existing file.
package main

import (
	"flag"
	"fmt"
	"os"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "uavgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("uavgen", flag.ExitOnError)
	var (
		out     = fs.String("out", "scenario.json", "output file path")
		n       = fs.Int("n", 3000, "number of ground users")
		k       = fs.Int("k", 20, "number of UAVs")
		area    = fs.Float64("area", 3000, "square area side in meters")
		cell    = fs.Float64("cell", 500, "grid cell side in meters")
		cmin    = fs.Int("cmin", 50, "minimum UAV service capacity")
		cmax    = fs.Int("cmax", 300, "maximum UAV service capacity")
		dist    = fs.String("dist", "fat-tailed", "user distribution: fat-tailed | uniform | hotspot")
		seed    = fs.Int64("seed", 1, "random seed")
		snap    = fs.Float64("snap", 0, "snap user positions to the centers of cells with this side in meters (0 = continuous positions); snapped scenarios aggregate exactly")
		aggCell = fs.Float64("agg-cell", 0, "also print the aggregate fingerprint for this demand-cell side in meters (0 = skip)")
		fp      = fs.String("fingerprint", "", "print the scenario fingerprint of this existing file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	aggOpts := uavnet.AggregateOptions{CellSide: *aggCell}
	if err := aggOpts.Validate(); err != nil {
		return err
	}

	if *fp != "" {
		sc, err := uavnet.LoadScenario(*fp)
		if err != nil {
			return err
		}
		fmt.Printf("%s: fingerprint %016x\n", *fp, sc.Fingerprint())
		return printAggFingerprint(sc, aggOpts)
	}

	d, err := parseDistribution(*dist)
	if err != nil {
		return err
	}

	sc, err := uavnet.GenerateScenario(uavnet.ScenarioSpec{
		AreaSide:     *area,
		CellSide:     *cell,
		N:            *n,
		K:            *k,
		CMin:         *cmin,
		CMax:         *cmax,
		Distribution: d,
		Seed:         *seed,
		SnapSide:     *snap,
	})
	if err != nil {
		return err
	}
	if err := uavnet.SaveScenario(*out, sc); err != nil {
		return err
	}
	// The fingerprint guards checkpoint resumption (uavdeploy -resume
	// refuses a checkpoint taken on a different scenario).
	fmt.Printf("wrote %s: %d users, %d UAVs, %d candidate cells (%s), fingerprint %016x\n",
		*out, sc.N(), sc.K(), sc.M(), *dist, sc.Fingerprint())
	return printAggFingerprint(sc, aggOpts)
}

// printAggFingerprint prints the aggregated-instance fingerprint for the
// demand-cell side, the value "uavdeploy -agg-cell" checkpoints are keyed
// on. A zero side prints nothing.
func printAggFingerprint(sc *uavnet.Scenario, opts uavnet.AggregateOptions) error {
	if opts.CellSide == 0 {
		return nil
	}
	afp, err := uavnet.AggregateFingerprint(sc, opts)
	if err != nil {
		return err
	}
	fmt.Printf("aggregate fingerprint %016x (demand-cell side %g m)\n", afp, opts.CellSide)
	return nil
}

// parseDistribution maps a CLI name to a workload distribution.
func parseDistribution(name string) (workload.Distribution, error) {
	switch name {
	case "fat-tailed":
		return workload.FatTailed, nil
	case "uniform":
		return workload.Uniform, nil
	case "hotspot":
		return workload.SingleHotspot, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q", name)
	}
}
