// Package attacks implements the four cache side channel attack classes of
// the paper's Table I against the simulated cache architectures:
//
//   - cache collision attacks (timing-driven, reuse based) — the paper's
//     main case study, both final-round and first-round AES variants;
//   - Flush-Reload attacks (access-driven, reuse based);
//   - Prime-Probe attacks (access-driven, contention based);
//   - Evict-Time attacks (timing-driven, contention based).
//
// Each attack runs against a victim whose L1 fill policy is configurable,
// so the same code demonstrates both the vulnerability of demand fetch and
// the defense provided by the random fill engine.
package attacks

import (
	"context"
	"fmt"

	"randfill/internal/aes"
	"randfill/internal/mem"
	"randfill/internal/plcache"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/stats"
	"randfill/internal/trace"
)

// Round selects which AES round the collision attack targets.
type Round int

const (
	// FinalRound attacks the T4 lookups: a collision between final-round
	// lookups u and w yields k10_u ^ k10_w = c_u ^ c_w.
	FinalRound Round = iota
	// FirstRound attacks the round-1 lookups x_i = p_i ^ k_i: a
	// collision yields <k_i ^ k_j> = <p_i ^ p_j> (the line-granular,
	// i.e. high-nibble, XOR of the key bytes).
	FirstRound
)

// CollisionConfig configures a cache collision attack run.
type CollisionConfig struct {
	// Sim is the machine configuration (Table IV defaults apply to zero
	// fields). The paper's security runs favor the attacker with a
	// 1-entry miss queue; the default 4 entries adds timing noise.
	Sim sim.Config
	// Victim is the victim thread's fill policy (the defense under
	// test).
	Victim sim.ThreadConfig
	// Key is the victim's 16-byte AES key; a random key is drawn from
	// Seed when nil.
	Key []byte
	// Round selects the attack variant.
	Round Round
	// Seed drives the attacker's plaintext generation.
	Seed uint64
	// TraceOpts tunes the victim's instruction mix.
	TraceOpts aes.TraceOpts
}

// CollisionStats is the mergeable measurement state of a collision attack:
// for each recovered XOR relation, the per-XOR-value grouped timing
// statistics, plus the overall timing distribution. It is everything the
// attack's verdict functions (RecoveredXor, Success, TimingChart, SigmaT)
// need, divorced from the machinery that produces measurements — which is
// what lets the parallel experiment engine shard one attack across
// goroutines and fold the shard states back together in a fixed order.
type CollisionStats struct {
	// pairs and truth describe the XOR relations under recovery and
	// their ground-truth values; all shards of one attack share them
	// (same victim key), and Merge enforces that.
	pairs []bytePair
	truth []int
	// groups[p] aggregates encryption times keyed by the XOR of byte
	// pair p. Final round: pairs (0,i), i = 1..15, keyed by c0^ci.
	// First round: pairs within each table's byte positions, keyed by
	// the line-granular plaintext XOR.
	groups []*stats.Grouped
	timing stats.Running
	n      uint64
}

// Collision is an in-progress cache collision attack: it accumulates timing
// measurements over block encryptions with random plaintexts and recovers
// key-byte XOR relations from the per-group mean encryption times.
type Collision struct {
	*CollisionStats

	cfg     CollisionConfig
	cipher  *aes.Cipher
	machine *sim.Machine
	thread  *sim.Thread
	src     *rng.Source
	warmups int
	// block is the victim's one-block encryption, traced and compiled once
	// per attack. Only its table lookups depend on the plaintext, and their
	// positions in the trace do not, so each sample rewrites those words
	// in place through patch instead of re-tracing and re-compiling.
	block trace.Compiled
	patch lookupPatch
}

// lookupPatch is the per-sample aes.Recorder: it rewrites the compiled
// block's secret lookup words, in the cipher's emission order, with the
// addresses of the sample's table lookups.
type lookupPatch struct {
	block *trace.Compiled
	// tables holds the layout's table bases. Lookup indexes them itself:
	// a call to the value-receiver aes.Layout.LookupAddr copies the whole
	// Layout on each of a sample's 160 lookups.
	tables [aes.NumTables]mem.Addr
	// words holds the index of each secret lookup word in block; next is
	// the lookup the cipher reports next.
	words []int
	next  int
}

// Lookup implements aes.Recorder.
func (r *lookupPatch) Lookup(table int, index byte, round int, first bool) {
	r.block.SetAddr(r.words[r.next], r.tables[table]+mem.Addr(index)*4) // as Layout.LookupAddr
	r.next++
}

// bytePair identifies one recovered XOR relation.
type bytePair struct {
	i, j int
	// lineGranular restricts the relation to the high nibble (the line
	// index), as in the first-round attack where only <xi> = <xj> is
	// observable.
	lineGranular bool
}

// NewCollision prepares an attack on a machine from sim.Acquire; Release
// returns the machine to the pool once the attack has collected its last
// sample. It panics on an invalid key, mirroring misuse rather than runtime
// failure.
func NewCollision(cfg CollisionConfig) *Collision {
	src := rng.New(cfg.Seed ^ 0xc0111510)
	key := cfg.Key
	if key == nil {
		key = make([]byte, 16)
		src.Bytes(key)
	}
	cipher, err := aes.New(key)
	if err != nil {
		panic(fmt.Sprintf("attacks: %v", err))
	}
	layout := aes.DefaultLayout()
	machine := sim.Acquire(cfg.Sim)
	a := &Collision{
		CollisionStats: &CollisionStats{},
		cfg:            cfg,
		cipher:         cipher,
		machine:        machine,
		thread:         machine.NewThread(cfg.Victim),
		src:            src,
	}
	tracer := &aes.Tracer{Cipher: cipher, Layout: layout, Opts: cfg.TraceOpts}
	_, block := tracer.EncryptBlock(make([]byte, aes.BlockSize), 0)
	trace.CompileInto(&a.block, block)
	// The cipher looks up one table entry per state byte per round.
	a.patch = lookupPatch{block: &a.block, tables: layout.Tables, words: make([]int, 0, aes.BlockSize*cipher.Rounds())}
	for i := range block {
		if block[i].Secret {
			a.patch.words = append(a.patch.words, i)
		}
	}
	switch cfg.Round {
	case FinalRound:
		for i := 1; i < 16; i++ {
			a.pairs = append(a.pairs, bytePair{i: 0, j: i})
		}
	case FirstRound:
		// Round-1 lookups per table: Te0 ← bytes {0,4,8,12},
		// Te1 ← {5,9,13,1}, Te2 ← {10,14,2,6}, Te3 ← {15,3,7,11}.
		tables := [4][4]int{
			{0, 4, 8, 12},
			{5, 9, 13, 1},
			{10, 14, 2, 6},
			{15, 3, 7, 11},
		}
		for _, bytes := range tables {
			for x := 0; x < 4; x++ {
				for y := x + 1; y < 4; y++ {
					a.pairs = append(a.pairs, bytePair{
						i: bytes[x], j: bytes[y], lineGranular: true,
					})
				}
			}
		}
	default:
		panic(fmt.Sprintf("attacks: unknown round %d", cfg.Round))
	}
	a.groups = make([]*stats.Grouped, len(a.pairs))
	for p := range a.groups {
		size := 256
		if a.pairs[p].lineGranular {
			size = 16
		}
		a.groups[p] = stats.NewGrouped(size)
	}
	a.truth = make([]int, len(a.pairs))
	for p := range a.pairs {
		a.truth[p] = a.computeTrueXor(p)
	}
	return a
}

// Release returns the attack's machine to sim's pool, for the next attack
// or experiment unit to reuse. The measurement state (Stats and the
// verdicts on it) stays valid; Collect after Release panics. A second
// Release does nothing.
func (a *Collision) Release() {
	if a.machine != nil {
		a.machine.Release()
		a.machine, a.thread = nil, nil
	}
}

// Stats returns the attack's mergeable measurement state. The returned
// value aliases the attack's live accumulators: Clone it before merging
// into an aggregate.
func (a *Collision) Stats() *CollisionStats { return a.CollisionStats }

// Pairs returns the number of XOR relations the attack recovers.
func (s *CollisionStats) Pairs() int { return len(s.pairs) }

// Samples returns the number of measurements collected so far.
func (s *CollisionStats) Samples() uint64 { return s.n }

// SigmaT returns the standard deviation of the measured encryption times,
// the sigma_T of Equation 5.
func (s *CollisionStats) SigmaT() float64 { return s.timing.StdDev() }

// Clone returns an independent deep copy of s, the seed for an aggregate
// that merges several shards' states without disturbing them.
func (s *CollisionStats) Clone() *CollisionStats {
	c := &CollisionStats{
		pairs:  s.pairs,
		truth:  s.truth,
		groups: make([]*stats.Grouped, len(s.groups)),
		timing: s.timing,
		n:      s.n,
	}
	for p := range s.groups {
		c.groups[p] = s.groups[p].Clone()
	}
	return c
}

// Merge folds other's measurements into s, as if s had collected them
// itself. Both states must come from the same attack configuration — same
// pair set and same victim key (identical ground truth); Merge panics
// otherwise, because merging measurements of different victims is a bug,
// not data. Merge order is up to the caller; the parallel engine always
// merges in shard-index order so the folded floats are reproducible.
func (s *CollisionStats) Merge(other *CollisionStats) {
	if len(s.pairs) != len(other.pairs) {
		panic(fmt.Sprintf("attacks: merging collision stats with %d pairs into %d pairs",
			len(other.pairs), len(s.pairs)))
	}
	for p := range s.truth {
		if s.truth[p] != other.truth[p] {
			panic("attacks: merging collision stats of different victim keys")
		}
	}
	for p := range s.groups {
		s.groups[p].Merge(other.groups[p])
	}
	s.timing.Merge(other.timing)
	s.n += other.n
}

// cleanCache restores the attacker's "clean cache" precondition between
// measurements: the L1 is flushed (the attacker primes/flushes the L1 data
// cache before triggering each encryption). The L2 is deliberately left
// warm — the victim's lookup tables are hot and stay resident in the 2 MB
// L2 across measurements, so every L1 miss costs the L2 hit latency and the
// timing channel is purely an L1 phenomenon, as in the paper's setup. A
// PLcache+preload victim re-runs its preload after the flush (as it would
// on the context switch back to the victim).
func (a *Collision) cleanCache() {
	a.machine.L1().Flush()
	if a.cfg.Victim.Mode == sim.ModePreload {
		plcache.Preload(a.machine.L1(), a.cfg.Victim.Owner, a.cfg.Victim.SecretRegions...)
	}
}

// Collect runs n one-block encryptions with random plaintexts, each from a
// clean cache, and accumulates the timing measurements. The first few
// encryptions of an attack are discarded unrecorded: they warm the L2 (the
// victim's tables become L2-resident for the rest of the attack) and their
// DRAM-latency outliers would otherwise pollute small-sample group means.
func (a *Collision) Collect(n int) {
	if a.machine == nil {
		panic("attacks: Collect after Release")
	}
	var pt [16]byte
	for a.warmups < 4 {
		a.warmups++
		a.src.Bytes(pt[:])
		a.cleanCache()
		a.encrypt(pt[:])
		a.thread.ReplayBatch(&a.block)
		a.thread.Drain()
	}
	for s := 0; s < n; s++ {
		a.src.Bytes(pt[:])
		a.cleanCache()
		start := a.thread.Cycle()
		ct := a.encrypt(pt[:])
		a.thread.ReplayBatch(&a.block)
		a.thread.Drain()
		elapsed := a.thread.Cycle() - start
		a.timing.Add(elapsed)
		a.n++

		for p, pair := range a.pairs {
			var key int
			if a.cfg.Round == FinalRound {
				key = int(ct[pair.i] ^ ct[pair.j])
			} else {
				key = int(pt[pair.i]^pt[pair.j]) >> 4
			}
			a.groups[p].Add(key, elapsed)
		}
	}
}

// encrypt encrypts the plaintext block pt and patches its table lookups
// into the compiled block, which is then the block's exact access trace.
func (a *Collision) encrypt(pt []byte) [aes.BlockSize]byte {
	var ct [aes.BlockSize]byte
	a.patch.next = 0
	a.cipher.Encrypt(ct[:], pt, &a.patch)
	return ct
}

// TrueXor returns the ground-truth XOR value for pair p: for the final
// round, k10_i ^ k10_j; for the first round, the high nibble of k_i ^ k_j.
func (s *CollisionStats) TrueXor(p int) int { return s.truth[p] }

// computeTrueXor derives the ground truth for pair p from the victim's key
// schedule at construction time.
func (a *Collision) computeTrueXor(p int) int {
	pair := a.pairs[p]
	if a.cfg.Round == FinalRound {
		k10 := a.cipher.LastRoundKey()
		return int(k10[pair.i] ^ k10[pair.j])
	}
	k := a.cipherKeyBytes()
	return int(k[pair.i]^k[pair.j]) >> 4
}

// cipherKeyBytes reconstructs the first-round key bytes (the AES key
// itself) from the schedule via a known-plaintext identity: the first four
// round-key words are the key.
func (a *Collision) cipherKeyBytes() [16]byte {
	// Encrypt the zero block while recording round-1 lookup indices:
	// index = key byte for zero plaintext.
	rec := &roundOneRec{}
	var out [16]byte
	a.cipher.Encrypt(out[:], make([]byte, 16), rec)
	return rec.key
}

// roundOneRec recovers the whitened state of round 1 (= key bytes for zero
// plaintext) from the lookup callback order, which is fixed.
type roundOneRec struct {
	key [16]byte
	pos int
}

// byteOrder is the state-byte position of each of the 16 round-1 lookups in
// emission order (see aes.Cipher.Encrypt).
var byteOrder = [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}

// Lookup implements aes.Recorder.
func (r *roundOneRec) Lookup(table int, index byte, round int, first bool) {
	if round == 1 && r.pos < 16 {
		r.key[byteOrder[r.pos]] = index
		r.pos++
	}
}

// RecoveredXor returns the attack's current estimate for pair p: the group
// key with the minimum mean encryption time (the collision value).
func (s *CollisionStats) RecoveredXor(p int) int { return s.groups[p].ArgMin() }

// CorrectPairs returns how many of the XOR relations are currently
// recovered correctly.
func (s *CollisionStats) CorrectPairs() int {
	n := 0
	for p := range s.pairs {
		if s.RecoveredXor(p) == s.TrueXor(p) {
			n++
		}
	}
	return n
}

// Success reports whether every XOR relation is recovered (full key
// recovery up to one guessed byte, as in Section II.C).
func (s *CollisionStats) Success() bool { return s.CorrectPairs() == len(s.pairs) }

// TimingChart returns the Figure 2 series for pair p: for each XOR value,
// the mean encryption time minus the grand mean (NaN-free: empty groups
// report 0 deviation). The collision value shows the minimum.
func (s *CollisionStats) TimingChart(p int) []float64 {
	g := s.groups[p]
	grand := g.GrandMean()
	out := make([]float64, g.Len())
	for k := range out {
		if g.Count(k) == 0 {
			continue
		}
		out[k] = g.Mean(k) - grand
	}
	return out
}

// SearchResult reports a measurements-to-success search.
type SearchResult struct {
	// Measurements is the sample count at which the attack first
	// succeeded (meaningful only when Success).
	Measurements uint64
	Success      bool
	// CorrectPairs is the best pair count reached.
	CorrectPairs int64
	// SigmaT is the observed timing standard deviation.
	SigmaT float64
}

// checkSearchBudget rejects a measurements-to-success budget that never
// ends: a batch must collect at least one sample and the cap must not be
// negative. A zero cap is an empty search.
func checkSearchBudget(batch, maxSamples int) error {
	if batch <= 0 {
		return fmt.Errorf("attacks: search batch %d: must be at least 1", batch)
	}
	if maxSamples < 0 {
		return fmt.Errorf("attacks: sample cap %d: must not be negative", maxSamples)
	}
	return nil
}

// MeasurementsToSuccessCtx collects samples in batches until the attack
// recovers every XOR relation or maxSamples is reached — the procedure
// behind Table III's "# measurements" row — with cooperative cancellation
// between batches. Unlike the sharded search, an interrupted
// serial search still returns the partial result alongside ctx's error, so
// an interactive caller (rfattack) can report how far the attack got before
// the interrupt; batches already collected are reflected in the result. The
// returned error is nil iff the search ran to completion or success; a
// budget checkSearchBudget rejects returns its error and an empty result.
func MeasurementsToSuccessCtx(ctx context.Context, cfg CollisionConfig, batch, maxSamples int) (SearchResult, error) {
	if err := checkSearchBudget(batch, maxSamples); err != nil {
		return SearchResult{}, err
	}
	a := NewCollision(cfg)
	defer a.Release()
	best := 0
	for a.Samples() < uint64(maxSamples) {
		if err := ctx.Err(); err != nil {
			return SearchResult{
				Measurements: a.Samples(),
				Success:      false,
				CorrectPairs: int64(best),
				SigmaT:       a.SigmaT(),
			}, err
		}
		n := batch
		if rem := maxSamples - int(a.Samples()); n > rem {
			n = rem
		}
		a.Collect(n)
		if c := a.CorrectPairs(); c > best {
			best = c
		}
		if a.Success() {
			return SearchResult{
				Measurements: a.Samples(),
				Success:      true,
				CorrectPairs: int64(a.Pairs()),
				SigmaT:       a.SigmaT(),
			}, nil
		}
	}
	return SearchResult{
		Measurements: a.Samples(),
		Success:      false,
		CorrectPairs: int64(best),
		SigmaT:       a.SigmaT(),
	}, nil
}
