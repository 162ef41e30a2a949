// Package rng is the repository's one deterministic random source:
// the splitmix64 finalizer and the stream built on it. Every seeded draw
// — workload generators, fault and chaos schedules, retry jitter, the
// soak load driver, the partition hash — goes through it, so a seed
// replays a run bit for bit and no package carries its own copy.
package rng

// Gamma is the splitmix64 stream increment (2^64 divided by the golden
// ratio).
const Gamma = 0x9E3779B97F4A7C15

// Mix is the splitmix64 finalizer: a fixed, seedless avalanche
// permutation of x.
func Mix(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Draw is a stateless one-off draw: the first value of the stream
// seeded at seed. Chaining h = Draw(h ^ x) folds several inputs into one
// seeded draw.
func Draw(seed uint64) uint64 { return Mix(seed + Gamma) }

// Stream is a splitmix64 stream; its value is the seed, or the state
// after the last draw.
type Stream uint64

// Next draws the next 64 random bits.
func (s *Stream) Next() uint64 {
	*s += Gamma
	return Mix(uint64(*s))
}

// Uint64n draws from [0, n) (modulo reduction; n > 0).
func (s *Stream) Uint64n(n uint64) uint64 { return s.Next() % n }

// Float draws a uniform float64 in [0, 1).
func (s *Stream) Float() float64 { return float64(s.Next()>>11) / (1 << 53) }
