package channel

import (
	"math"
	"testing"
	"testing/quick"
)

func defaultTx() Transmitter { return Transmitter{PowerDBm: 30, AntennaGainDBi: 3} }

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Params)
		wantErr bool
	}{
		{"default-ok", func(*Params) {}, false},
		{"zero-carrier", func(p *Params) { p.CarrierHz = 0 }, true},
		{"negative-bandwidth", func(p *Params) { p.BandwidthHz = -1 }, true},
		{"bad-env", func(p *Params) { p.Env.B = 0 }, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mutate(&p)
			if err := p.Validate(); (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestLoSProbabilityBounds(t *testing.T) {
	p := DefaultParams()
	for _, elev := range []float64{0, 5, 15, 30, 45, 60, 75, 90} {
		got := p.LoSProbability(elev)
		if got < 0 || got > 1 {
			t.Errorf("P_LoS(%g) = %g outside [0,1]", elev, got)
		}
	}
}

func TestLoSProbabilityMonotoneInElevation(t *testing.T) {
	p := DefaultParams()
	prev := -1.0
	for elev := 0.0; elev <= 90; elev += 1 {
		got := p.LoSProbability(elev)
		if got < prev {
			t.Fatalf("P_LoS not monotone at %g deg: %g < %g", elev, got, prev)
		}
		prev = got
	}
	// Overhead should be essentially LoS.
	if got := p.LoSProbability(90); got < 0.99 {
		t.Errorf("P_LoS(90) = %g, want near 1", got)
	}
}

func TestFreeSpacePathLoss(t *testing.T) {
	p := DefaultParams()
	// Known value: FSPL at 2 GHz, 1 km is ~98.5 dB (32.45 + 20log10(f_MHz) + 20log10(d_km)).
	got := p.FreeSpacePathLossDB(1000)
	if math.Abs(got-98.5) > 0.2 {
		t.Errorf("FSPL(2GHz, 1km) = %g dB, want about 98.5", got)
	}
	// Doubling distance adds about 6.02 dB.
	diff := p.FreeSpacePathLossDB(2000) - got
	if math.Abs(diff-6.0206) > 1e-3 {
		t.Errorf("doubling distance added %g dB, want about 6.02", diff)
	}
}

func TestFreeSpacePathLossClampsTinyDistances(t *testing.T) {
	p := DefaultParams()
	if got, ref := p.FreeSpacePathLossDB(0), p.FreeSpacePathLossDB(1); got != ref {
		t.Errorf("FSPL(0) = %g, want clamp to FSPL(1) = %g", got, ref)
	}
}

func TestAirToGroundBetweenLoSAndNLoS(t *testing.T) {
	p := DefaultParams()
	for _, horiz := range []float64{0, 100, 300, 1000, 3000} {
		alt := 300.0
		dist := math.Hypot(horiz, alt)
		fspl := p.FreeSpacePathLossDB(dist)
		pl := p.AirToGroundPathLossDB(horiz, alt)
		lo, hi := fspl+p.Env.EtaLoSdB, fspl+p.Env.EtaNLoSdB
		if pl < lo-1e-9 || pl > hi+1e-9 {
			t.Errorf("PL(horiz=%g) = %g outside [LoS %g, NLoS %g]", horiz, pl, lo, hi)
		}
	}
}

func TestAirToGroundMonotoneInHorizontalDistance(t *testing.T) {
	p := DefaultParams()
	prev := -1.0
	for horiz := 0.0; horiz <= 5000; horiz += 25 {
		pl := p.AirToGroundPathLossDB(horiz, 300)
		if pl < prev {
			t.Fatalf("pathloss not monotone at horiz=%g: %g < %g", horiz, pl, prev)
		}
		prev = pl
	}
}

func TestSNRAndRate(t *testing.T) {
	p := DefaultParams()
	tx := defaultTx()
	// 0 dB SNR -> rate = Bw exactly (log2(2) = 1).
	if got := p.RateBps(0); math.Abs(got-p.BandwidthHz) > 1e-6 {
		t.Errorf("rate at 0 dB = %g, want %g", got, p.BandwidthHz)
	}
	// SNR should decrease with pathloss.
	s1 := p.SNRdB(tx, 90)
	s2 := p.SNRdB(tx, 100)
	if s1-s2 != 10 {
		t.Errorf("SNR drop = %g, want 10", s1-s2)
	}
	// Rate monotone in SNR.
	if p.RateBps(10) <= p.RateBps(0) {
		t.Error("rate not monotone in SNR")
	}
}

func TestUserRateDecreasesWithDistance(t *testing.T) {
	p := DefaultParams()
	tx := defaultTx()
	prev := math.Inf(1)
	for horiz := 0.0; horiz <= 3000; horiz += 50 {
		r := p.UserRateBps(tx, horiz, 300)
		if r > prev+1e-9 {
			t.Fatalf("rate not monotone at horiz=%g", horiz)
		}
		prev = r
	}
}

func TestCoverageRadius(t *testing.T) {
	p := DefaultParams()
	tx := defaultTx()
	const alt, rmin = 300.0, 2_000.0 // 2 kbps as in the paper
	r := p.CoverageRadius(tx, alt, rmin)
	if r <= 0 {
		t.Fatalf("coverage radius = %g, want positive", r)
	}
	// Just inside the radius the rate meets the target; just outside it does not.
	if got := p.UserRateBps(tx, r-1, alt); got < rmin {
		t.Errorf("rate at r-1 = %g < rmin", got)
	}
	if got := p.UserRateBps(tx, r+1, alt); got >= rmin {
		t.Errorf("rate at r+1 = %g >= rmin", got)
	}
}

func TestCoverageRadiusGrowsWithPower(t *testing.T) {
	p := DefaultParams()
	weak := Transmitter{PowerDBm: 20, AntennaGainDBi: 3}
	strong := Transmitter{PowerDBm: 40, AntennaGainDBi: 3}
	rw := p.CoverageRadius(weak, 300, 2000)
	rs := p.CoverageRadius(strong, 300, 2000)
	if rs <= rw {
		t.Errorf("stronger transmitter radius %g <= weaker %g", rs, rw)
	}
}

func TestCoverageRadiusUnreachableTarget(t *testing.T) {
	p := DefaultParams()
	// An absurd rate target that even an overhead user cannot get.
	tx := Transmitter{PowerDBm: -100, AntennaGainDBi: 0}
	if r := p.CoverageRadius(tx, 300, 1e12); r != 0 {
		t.Errorf("radius = %g, want 0 for unreachable target", r)
	}
}

func TestEnvironmentOrdering(t *testing.T) {
	// Denser environments should have lower LoS probability at a moderate
	// elevation angle.
	tx := defaultTx()
	_ = tx
	base := Params{CarrierHz: 2e9, NoiseDBm: -121, BandwidthHz: 180e3}
	envs := []Environment{Suburban, Urban, DenseUrban, Highrise}
	prev := 2.0
	for _, env := range envs {
		p := base
		p.Env = env
		got := p.LoSProbability(30)
		if got >= prev {
			t.Errorf("P_LoS(30) for %s = %g, want decreasing across densities", env.Name, got)
		}
		prev = got
	}
}

func TestSNRLinear(t *testing.T) {
	tests := []struct{ db, want float64 }{
		{0, 1}, {10, 10}, {20, 100}, {-10, 0.1},
	}
	for _, tc := range tests {
		if got := SNRLinear(tc.db); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("SNRLinear(%g) = %g, want %g", tc.db, got, tc.want)
		}
	}
}

// TestUserRateMonotoneQuickProperty is the monotonicity law as a
// testing/quick property (idiom shared with internal/geom): for any pair of
// horizontal distances the farther user never gets a higher rate. The
// feasibility oracle in internal/verify leans on this when it re-derives
// minimum-rate compliance from the channel model.
func TestUserRateMonotoneQuickProperty(t *testing.T) {
	p := DefaultParams()
	tx := defaultTx()
	f := func(d1, d2, altRaw float64) bool {
		// Bound quick's unbounded floats into the physical regime.
		bound := func(v, lim float64) float64 { return math.Abs(math.Mod(v, lim)) }
		a, b := bound(d1, 5000), bound(d2, 5000)
		alt := 50 + bound(altRaw, 950) // altitude 50..1000 m
		if a > b {
			a, b = b, a
		}
		return p.UserRateBps(tx, b, alt) <= p.UserRateBps(tx, a, alt)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
