// Package rng provides the deterministic random number generation used by
// every stochastic component of the simulator: the random fill engine, the
// random replacement policies, the synthetic workload generators, and the
// Monte Carlo security analyses.
//
// A hardware random fill engine would use a free-running RNG (the paper
// suggests a PRNG with a truly random seed). For reproducible experiments we
// use a seeded xorshift64* generator; distinct subsystems derive independent
// streams from a root seed via Split.
//
// # Stream version
//
// The byte stream produced by Bytes and Read is versioned: seeds are only
// comparable across runs built from the same stream version.
//
//   - v1 drew one Uint64 per output byte (top byte of each draw).
//   - v2 (current) consumes all 8 bytes of each Uint64 draw, little-endian,
//     so filling n bytes costs ceil(n/8) draws instead of n. Single-byte
//     draws via Byte are unchanged (one draw, top byte).
//
// Goldens and recorded experiment rows generated under v1 were regenerated
// when v2 landed; Uint64/Intn/Float64/Byte consumers were unaffected.
package rng

import "encoding/binary"

// StreamVersion identifies the current byte-stream layout of Bytes/Read
// (see "Stream version" in the package doc). Persisted artifacts that
// embed RNG-derived state — notably internal/checkpoint shard files —
// record this version so a resumed run refuses to merge shards drawn from
// an incompatible stream. Bump it whenever the mapping from (seed, draw
// index) to output bytes changes.
const StreamVersion = 2

// Source is a deterministic pseudo-random number generator (xorshift64*).
// The zero value is not valid; use New.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. A zero seed is remapped to a fixed
// non-zero constant because xorshift has an all-zero fixed point.
func New(seed uint64) *Source {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	s := &Source{state: seed}
	// Warm up so that small seeds do not yield correlated first outputs.
	for i := 0; i < 4; i++ {
		s.Uint64()
	}
	return s
}

// Split derives a new independent Source from s, keyed by id. Two Splits
// with different ids produce unrelated streams, letting subsystems share one
// root seed without sharing a stream.
func (s *Source) Split(id uint64) *Source {
	return New(s.SplitSeed(id))
}

// SplitSeed derives the seed Split(id) would use without allocating the
// child Source. It advances s by one draw, exactly like Split, so the two
// forms are interchangeable draw-for-draw. Callers that fan work out across
// shards (internal/parexp) use this to precompute a deterministic seed per
// shard up front, so the shard streams are a pure function of the root seed
// no matter which goroutine later consumes them.
func (s *Source) SplitSeed(id uint64) uint64 {
	// SplitMix64-style mixing of the current state with the id.
	z := s.Uint64() + id*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift bounded generation (Lemire); bias is negligible for
	// the small n used here (< 2^32).
	return int((s.Uint64() >> 32) * uint64(n) >> 32)
}

// Bytes fills p with random bytes, consuming one Uint64 draw per 8 bytes
// (little-endian; a final partial word uses the draw's low bytes). See the
// package comment's stream-version note.
func (s *Source) Bytes(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, s.Uint64())
		p = p[8:]
	}
	if len(p) > 0 {
		x := s.Uint64()
		for i := range p {
			p[i] = byte(x)
			x >>= 8
		}
	}
}

// Read fills p with random bytes and never fails, making Source an
// io.Reader. This is the deterministic stand-in for crypto/rand.Reader
// (and for math/rand adapters) anywhere a consumer — e.g. big.Int sampling
// in the attack CLIs — wants randomness through the reader interface.
func (s *Source) Read(p []byte) (int, error) {
	s.Bytes(p)
	return len(p), nil
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }
