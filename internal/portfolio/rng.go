package portfolio

import "math/rand"

// splitmix is a splitmix64 PRNG implementing rand.Source64. Its entire state
// is one uint64, which is what makes portfolio checkpoints trivially
// serializable: freeze the word, restore it, and the stream continues exactly
// where it left off. Each solver owns one seeded *rand.Rand over a splitmix
// source (Options threads the seed; no global math/rand anywhere, so the
// detorder analyzer stays clean). Only Int63/Intn/Uint64/Float64-style draws
// are used — rand.Rand buffers no state for those, so (source state) is the
// complete RNG state.
type splitmix struct {
	state uint64
}

// mix is one splitmix64 output step, also used to derive independent member
// seeds from (Options.Seed, member index) without correlated streams.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Uint64() uint64 {
	z := mix(s.state)
	s.state += 0x9e3779b97f4a7c15
	return z
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// memberSeed derives the state word for member index i of a run seeded with
// seed. The derivation is position-based, so "anneal" draws the same stream
// whether it races alone or inside the full portfolio.
func memberSeed(seed int64, i int) uint64 {
	return mix(uint64(seed) ^ mix(uint64(i)+1))
}

// newMemberRNG returns the member's seeded RNG and its underlying source
// (exposed for checkpointing).
func newMemberRNG(seed int64, i int) (*rand.Rand, *splitmix) {
	src := &splitmix{state: memberSeed(seed, i)}
	return rand.New(src), src
}
