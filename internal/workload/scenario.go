package workload

import (
	"fmt"

	"github.com/uav-coverage/uavnet/internal/channel"
	"github.com/uav-coverage/uavnet/internal/core"
	"github.com/uav-coverage/uavnet/internal/geom"
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
	Distribution Distribution
	// Seed drives user placement and fleet sampling.
	Seed int64
	// SnapSide, when non-zero, snaps user positions to the centers of a grid
	// with this side (UserOptions.SnapSide, which refuses a side that is not
	// positive or does not divide the area) — the demand-homogeneous regime
	// in which aggregation is exact. Zero leaves positions continuous.
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

// BuildScenario generates the scenario described by p without precomputing
// an instance, so callers can choose the per-user or aggregated path.
func BuildScenario(p Params) (*core.Scenario, error) {
	p = p.WithDefaults()
	grid := geom.Grid{Length: p.AreaSide, Width: p.AreaSide, Side: p.CellSide, Altitude: p.Altitude}
	positions, err := UsersWithOptions(grid, p.N, p.Distribution, p.Seed,
		UserOptions{SnapSide: p.SnapSide})
	if err != nil {
		return nil, err
	}
	caps, err := Capacities(p.K, p.CMin, p.CMax, p.Seed+1)
	if err != nil {
		return nil, err
	}
	sc := &core.Scenario{
		Grid:     grid,
		UAVRange: p.UAVRange,
		Channel:  channel.DefaultParams(),
	}
	// Sized once: appending a million users leaves several times the slice
	// in garbage and makes the peak heap depend on when a collection runs.
	sc.Users = make([]core.User, len(positions))
	for i, pos := range positions {
		sc.Users[i] = core.User{Pos: pos, MinRateBps: p.MinRateBps}
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
