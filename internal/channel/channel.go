// Package channel implements the wireless channel models of Section II-B:
// the air-to-ground (UAV-to-user) channel with probabilistic Line-of-Sight /
// Non-Line-of-Sight pathloss following Al-Hourani et al. [2], and the
// free-space UAV-to-UAV channel. On top of the pathloss models it provides
// SNR, Shannon data rate, and a numeric solver for the coverage radius
// R_user^k of a UAV given its transmission power and a minimum-rate target.
//
// Units: frequencies in Hz, distances in meters, powers in dBm, gains in dBi,
// pathloss in dB, bandwidth in Hz, rates in bit/s.
package channel

import (
	"fmt"
	"math"
)

// SpeedOfLight is c in m/s.
const SpeedOfLight = 299_792_458.0

// Environment holds the Al-Hourani [2] air-to-ground model constants for one
// propagation environment: the S-curve parameters (A, B) of the LoS
// probability and the excess shadowing losses for LoS and NLoS links.
type Environment struct {
	Name string
	// A and B shape the LoS probability P_LoS = 1/(1 + A*exp(-B*(theta - A)))
	// where theta is the elevation angle in degrees.
	A, B float64
	// EtaLoSdB and EtaNLoSdB are the mean excess pathlosses (shadow fading)
	// added to free-space loss on LoS and NLoS links.
	EtaLoSdB, EtaNLoSdB float64
}

// Standard environments from Al-Hourani et al. [2].
var (
	Suburban   = Environment{Name: "suburban", A: 4.88, B: 0.43, EtaLoSdB: 0.1, EtaNLoSdB: 21}
	Urban      = Environment{Name: "urban", A: 9.61, B: 0.16, EtaLoSdB: 1.0, EtaNLoSdB: 20}
	DenseUrban = Environment{Name: "dense-urban", A: 12.08, B: 0.11, EtaLoSdB: 1.6, EtaNLoSdB: 23}
	Highrise   = Environment{Name: "highrise", A: 27.23, B: 0.08, EtaLoSdB: 2.3, EtaNLoSdB: 34}
)

// Params are the system-level radio parameters shared by all links.
type Params struct {
	Env Environment
	// CarrierHz is the carrier frequency f_c, e.g. 2e9 for 2 GHz LTE.
	CarrierHz float64
	// NoiseDBm is the noise power P_N at the receiver, e.g. -104 dBm for a
	// 10 MHz LTE channel, or -121 dBm for one 180 kHz resource block.
	NoiseDBm float64
	// BandwidthHz is the per-user channel bandwidth B_w, e.g. 180 kHz for one
	// OFDMA resource block [28].
	BandwidthHz float64
}

// DefaultParams returns the parameters used throughout the paper's
// evaluation: 2 GHz carrier in an urban environment with one 180 kHz OFDMA
// resource block per user.
func DefaultParams() Params {
	return Params{
		Env:         Urban,
		CarrierHz:   2e9,
		NoiseDBm:    -121,
		BandwidthHz: 180e3,
	}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.CarrierHz <= 0:
		return fmt.Errorf("channel: carrier frequency %g Hz must be positive", p.CarrierHz)
	case p.BandwidthHz <= 0:
		return fmt.Errorf("channel: bandwidth %g Hz must be positive", p.BandwidthHz)
	case p.Env.B <= 0:
		return fmt.Errorf("channel: environment %q has non-positive B", p.Env.Name)
	}
	return nil
}

// Transmitter describes the radio front-end of one UAV base station.
// Heterogeneous fleets have different powers and gains per UAV.
type Transmitter struct {
	// PowerDBm is the transmission power P_t^k.
	PowerDBm float64
	// AntennaGainDBi is the antenna gain g_t^k.
	AntennaGainDBi float64
}

// LoSProbability returns P_LoS for the given elevation angle in degrees,
// using the Al-Hourani S-curve.
func (p Params) LoSProbability(elevationDeg float64) float64 {
	return 1 / (1 + p.Env.A*math.Exp(-p.Env.B*(elevationDeg-p.Env.A)))
}

// FreeSpacePathLossDB returns 20*log10(4*pi*f_c*d/c) for distance d.
// Distances below one meter are clamped to one meter to keep the logarithm
// finite near the antenna.
func (p Params) FreeSpacePathLossDB(dist float64) float64 {
	if dist < 1 {
		dist = 1
	}
	return 20 * math.Log10(4*math.Pi*p.CarrierHz*dist/SpeedOfLight)
}

// AirToGroundPathLossDB returns the mean pathloss PL between a UAV at
// altitude above a point at horizontal distance horiz from the user:
//
//	PL = P_LoS*(FSPL + etaLoS) + (1-P_LoS)*(FSPL + etaNLoS).
func (p Params) AirToGroundPathLossDB(horiz, altitude float64) float64 {
	dist := math.Hypot(horiz, altitude)
	elev := 90.0
	if horiz > 0 {
		elev = math.Atan2(altitude, horiz) * 180 / math.Pi
	}
	fspl := p.FreeSpacePathLossDB(dist)
	pLoS := p.LoSProbability(elev)
	return pLoS*(fspl+p.Env.EtaLoSdB) + (1-pLoS)*(fspl+p.Env.EtaNLoSdB)
}

// SNRdB returns the received signal-to-noise ratio in dB for a link with the
// given transmitter and pathloss: P_t + g_t - PL - P_N.
func (p Params) SNRdB(tx Transmitter, pathLossDB float64) float64 {
	return tx.PowerDBm + tx.AntennaGainDBi - pathLossDB - p.NoiseDBm
}

// SNRLinear converts an SNR in dB to its linear value.
func SNRLinear(snrDB float64) float64 { return math.Pow(10, snrDB/10) }

// RateBps returns the Shannon data rate B_w * log2(1 + SNR) for a link with
// the given SNR in dB.
func (p Params) RateBps(snrDB float64) float64 {
	return p.BandwidthHz * math.Log2(1+SNRLinear(snrDB))
}

// UserRateBps returns the data rate r_ij of a ground user at horizontal
// distance horiz from a UAV hovering at the given altitude.
func (p Params) UserRateBps(tx Transmitter, horiz, altitude float64) float64 {
	pl := p.AirToGroundPathLossDB(horiz, altitude)
	return p.RateBps(p.SNRdB(tx, pl))
}

// maxCoverageSearchM bounds the bisection for CoverageRadius.
const maxCoverageSearchM = 1e6

// CoverageRadius returns the largest horizontal distance at which a ground
// user still receives at least minRateBps from a UAV at the given altitude,
// i.e. the communication coverage radius R_user^k of Section II-B. It
// returns 0 if even a user directly underneath the UAV cannot be served.
//
// The rate is monotonically non-increasing in horizontal distance (both the
// free-space loss and the NLoS mixing grow with distance), so bisection is
// exact up to the returned tolerance of one millimeter.
func (p Params) CoverageRadius(tx Transmitter, altitude, minRateBps float64) float64 {
	if p.UserRateBps(tx, 0, altitude) < minRateBps {
		return 0
	}
	lo, hi := 0.0, maxCoverageSearchM
	if p.UserRateBps(tx, hi, altitude) >= minRateBps {
		return hi
	}
	for hi-lo > 1e-3 {
		mid := (lo + hi) / 2
		if p.UserRateBps(tx, mid, altitude) >= minRateBps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
