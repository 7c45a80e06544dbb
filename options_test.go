package uavnet_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	uavnet "github.com/uav-coverage/uavnet"
	"github.com/uav-coverage/uavnet/internal/server"
)

// optionRows has one rejected row per rule of Options.Validate, naming the
// field its error must name, then the option sets the benchmark, the CI
// smokes, the gateway path and a StopAfter-cut race pass today, which must
// stay accepted.
var optionRows = []struct {
	name  string
	opts  uavnet.Options
	field string // "" for an accepted row
}{
	{"S negative", uavnet.Options{S: -1}, "S"},
	{"MaxSubsets negative", uavnet.Options{MaxSubsets: -5}, "MaxSubsets"},
	{"Workers negative", uavnet.Options{Workers: -1}, "Workers"},
	{"StopAfter negative", uavnet.Options{StopAfter: -3}, "StopAfter"},
	{"SolverBudget negative", uavnet.Options{Solver: "anneal", SolverBudget: -7}, "SolverBudget"},
	{"shard index at count", uavnet.Options{Shard: uavnet.ShardSpec{Index: 2, Count: 2}}, "Shard"},
	{"shard index without count", uavnet.Options{Shard: uavnet.ShardSpec{Index: 1}}, "Shard"},
	{"enumeration with SolverBudget", uavnet.Options{SolverBudget: 100}, "SolverBudget"},
	{"metaheuristic with MaxSubsets", uavnet.Options{Solver: "anneal", MaxSubsets: 5}, "MaxSubsets"},
	{"metaheuristic with RequiredCells", uavnet.Options{Solver: "grasp", RequiredCells: []int{0}}, "RequiredCells"},
	{"metaheuristic with Shard", uavnet.Options{Solver: "genetic", Shard: uavnet.ShardSpec{Count: 2}}, "Shard"},

	{"zero", uavnet.Options{}, ""},
	{"fig6-s3", uavnet.Options{S: 3, Workers: 2}, ""},
	{"portfolio-m900", uavnet.Options{S: 3, Workers: 2, Solver: "portfolio", SolverBudget: 1000, Seed: 1}, ""},
	{"serve-mix job", uavnet.Options{S: 3, Workers: 1}, ""},
	{"shard-smoke worker", uavnet.Options{S: 3, Workers: 1, Shard: uavnet.ShardSpec{Index: 3, Count: 4}}, ""},
	{"seeded sampled shard cut", uavnet.Options{S: 3, MaxSubsets: 2000, Seed: 5, Workers: 1,
		Shard: uavnet.ShardSpec{Index: 1, Count: 2}, StopAfter: 1500}, ""},
	{"portfolio-smoke member", uavnet.Options{S: 3, Seed: 1, Solver: "anneal", SolverBudget: 200}, ""},
	{"metaheuristic with StopAfter", uavnet.Options{Solver: "tabu", StopAfter: 10}, ""},
	{"gateway enumeration", uavnet.Options{S: 2, Workers: 2, RequiredCells: []int{0}}, ""},
	{"literal without pruning", uavnet.Options{S: 1, DisablePrune: true, GroundLeftovers: true}, ""},
}

func TestOptionsValidate(t *testing.T) {
	for _, row := range optionRows {
		err := row.opts.Validate()
		switch {
		case row.field == "" && err != nil:
			t.Errorf("%s: %+v rejected: %v", row.name, row.opts, err)
		case row.field != "" && err == nil:
			t.Errorf("%s: %+v accepted", row.name, row.opts)
		case row.field != "" && !strings.Contains(err.Error(), "core: "+row.field+" "):
			t.Errorf("%s: error %q does not name %s", row.name, err, row.field)
		}
	}
}

// TestOptionsValidateAtEveryDoor runs every row, and the same row with the
// enumeration and the portfolio swapped, through each front door that takes
// it: the facade's dispatch, its gateway path (which adds RequiredCells),
// and the job server's wire check for the rows the wire can carry. Each door
// must give Validate's verdict, error text included, so none keeps a rule
// of its own.
func TestOptionsValidateAtEveryDoor(t *testing.T) {
	in, err := uavnet.GenerateInstance(uavnet.ScenarioSpec{
		AreaSide: 1500, CellSide: 500, N: 40, K: 3, CMin: 10, CMax: 25, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := uavnet.Gateway{Pos: in.Centers[0]}
	gwCells := in.GatewayCells(gw)
	// Every door decides before it runs, and an accepted run stops at once
	// on the cancelled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	verdict := func(err error) string {
		if err == nil || errors.Is(err, context.Canceled) {
			return "accepted"
		}
		return err.Error()
	}
	for _, row := range optionRows {
		swapped := row.opts
		swapped.Solver = "portfolio"
		if !row.opts.SolverIsEnum() {
			swapped.Solver = ""
		}
		for _, o := range []uavnet.Options{row.opts, swapped} {
			want := verdict(o.Validate())
			_, err := uavnet.DeployInstanceContext(ctx, in, o)
			if got := verdict(err); got != want {
				t.Errorf("%s, solver %q: facade says %q, Validate %q", row.name, o.Solver, got, want)
			}
			if len(o.RequiredCells) == 0 {
				withCells := o
				withCells.RequiredCells = gwCells
				_, err := uavnet.DeployToGatewayContext(ctx, in, gw, o)
				if got, want := verdict(err), verdict(withCells.Validate()); got != want {
					t.Errorf("%s, solver %q: gateway says %q, Validate %q", row.name, o.Solver, got, want)
				}
			}
			if o.StopAfter != 0 || o.Shard != (uavnet.ShardSpec{}) || len(o.RequiredCells) != 0 {
				continue // the wire has no field for these
			}
			jo := server.JobOptions{
				S: o.S, MaxSubsets: o.MaxSubsets, Seed: o.Seed, DisablePrune: o.DisablePrune,
				GroundLeftovers: o.GroundLeftovers, Solver: o.Solver, SolverBudget: o.SolverBudget,
				Workers: o.Workers,
			}
			if got := verdict(jo.Validate()); got != want {
				t.Errorf("%s, solver %q: server says %q, Validate %q", row.name, o.Solver, got, want)
			}
		}
	}
}
