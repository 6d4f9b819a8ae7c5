package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"randfill/internal/rng"
)

// Policy selects replacement victims within a set. Implementations keep
// their state in the per-slot stamp words of Slots (one uint64 per way,
// handed over as a contiguous per-set subslice), so a single policy
// instance serves all sets. How a policy interprets the
// words is its own business: LRU/FIFO store per-way access times, the RRIP
// family stores per-way re-reference prediction values, and tree-PLRU packs
// its tree bits into the subslice's bit space.
//
// Fills and hits are distinct events (OnFill/OnHit): RRIP inserts at a
// distant prediction and promotes on hit, FIFO stamps only fills. Victim may
// MUTATE the stamps it scans — SRRIP/BRRIP age the whole set while searching
// — so callers must hand it the live per-set state, never a copy they throw
// away.
type Policy interface {
	// OnHit updates the set's replacement state after a demand hit of
	// way w; tick is a monotonically increasing per-cache access counter.
	OnHit(stamps []uint64, w int, tick uint64)
	// OnFill updates the set's replacement state after way w is filled
	// or refreshed (a Fill of an already-present line).
	OnFill(stamps []uint64, w int, tick uint64)
	// Victim returns the way to evict from a full set. It may mutate
	// stamps (RRIP aging).
	Victim(stamps []uint64) int
	// VictimMasked is Victim restricted to the ways whose bit is set in
	// allowed (bit w = way w, so masked callers need Ways <= 64). It
	// returns -1 when allowed selects no way — the caller's fill is
	// refused. SetAssoc evicts through it when the filling owner's ways
	// are restricted (NoMo) or the set holds a locked line (PLcache);
	// over a mask of every way it must pick Victim's way with the same
	// stamp updates and RNG draws.
	VictimMasked(stamps []uint64, allowed uint64) int
	String() string
}

// PolicyNames returns the configuration names PolicyByName accepts, in
// documentation order.
func PolicyNames() []string {
	return []string{"lru", "fifo", "random", "plru", "srrip", "brrip"}
}

// KnownPolicy reports whether name is a recognized policy configuration
// name ("" counts: it selects the caller's default).
func KnownPolicy(name string) bool {
	if name == "" {
		return true
	}
	switch strings.ToLower(name) {
	case "lru", "fifo", "random", "plru", "srrip", "brrip":
		return true
	}
	return false
}

// PolicyNeedsRNG reports whether the named policy draws replacement
// randomness (and therefore needs a non-nil rng.Source at construction).
// Callers that lazily split an RNG stream for the policy use it to keep
// draw-free policies from consuming a split — the byte-identity discipline
// for default-policy configurations.
func PolicyNeedsRNG(name string) bool {
	switch strings.ToLower(name) {
	case "random", "brrip":
		return true
	}
	return false
}

// PolicyValid reports an error if p is structurally unusable — an
// RNG-backed policy with no source. Constructors call it so a
// misconfigured policy fails at build time, not on its first eviction.
func PolicyValid(p Policy) error {
	switch q := p.(type) {
	case Random:
		if q.Src == nil {
			return fmt.Errorf("cache: Random policy requires a rng.Source")
		}
	case BRRIP:
		if q.Src == nil {
			return fmt.Errorf("cache: BRRIP policy requires a rng.Source")
		}
	}
	return nil
}

// PolicyByName returns a policy instance by its configuration name, or an
// error naming the valid choices. The empty name selects LRU (the paper's
// Table IV baseline). src feeds the RNG-backed policies (random, brrip) and
// may be nil for the rest.
func PolicyByName(name string, src *rng.Source) (Policy, error) {
	switch strings.ToLower(name) {
	case "lru", "":
		return LRU{}, nil
	case "fifo":
		return FIFO{}, nil
	case "plru":
		return PLRU{}, nil
	case "srrip":
		return SRRIP{}, nil
	case "random":
		p := Random{Src: src}
		return p, PolicyValid(p)
	case "brrip":
		p := BRRIP{Src: src}
		return p, PolicyValid(p)
	default:
		return nil, fmt.Errorf("cache: unknown replacement policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}

// waysMask returns the allowed mask clamped to the first min(ways, 64)
// ways; masked victim selection is defined for ways <= 64.
func waysMask(ways int, allowed uint64) uint64 {
	if ways < 64 {
		allowed &= 1<<uint(ways) - 1
	}
	return allowed
}

// LRU evicts the least recently used way (the paper's baseline, Table IV).
type LRU struct{}

// OnHit records the access time of way w.
func (LRU) OnHit(stamps []uint64, w int, tick uint64) { stamps[w] = tick }

// OnFill records the fill time of way w.
func (LRU) OnFill(stamps []uint64, w int, tick uint64) { stamps[w] = tick }

// Victim returns the way with the oldest access time.
func (LRU) Victim(stamps []uint64) int { return oldest(stamps) }

// oldest returns the first way with the smallest stamp: LRU's and FIFO's
// victim, and Slots' LRU fast path.
func oldest(stamps []uint64) int {
	best := 0
	for w := 1; w < len(stamps); w++ {
		if stamps[w] < stamps[best] {
			best = w
		}
	}
	return best
}

// VictimMasked returns the oldest allowed way (first minimum in way order —
// the scan PLcache/NoMo historically ran inline), or -1.
func (LRU) VictimMasked(stamps []uint64, allowed uint64) int {
	allowed = waysMask(len(stamps), allowed)
	best := -1
	for w := 0; w < len(stamps) && w < 64; w++ {
		if allowed&(1<<uint(w)) == 0 {
			continue
		}
		if best < 0 || stamps[w] < stamps[best] {
			best = w
		}
	}
	return best
}

func (LRU) String() string { return "LRU" }

// FIFO evicts the oldest-filled way; hits do not refresh a way's stamp.
type FIFO struct{}

// OnHit is a no-op: hits do not refresh FIFO age.
func (FIFO) OnHit(stamps []uint64, w int, tick uint64) {}

// OnFill records the fill time of way w.
func (FIFO) OnFill(stamps []uint64, w int, tick uint64) { stamps[w] = tick }

// Victim returns the way with the oldest fill time.
func (FIFO) Victim(stamps []uint64) int { return oldest(stamps) }

// VictimMasked returns the oldest-filled allowed way, or -1.
func (FIFO) VictimMasked(stamps []uint64, allowed uint64) int {
	return LRU{}.VictimMasked(stamps, allowed)
}

func (FIFO) String() string { return "FIFO" }

// Random evicts a uniformly random way (used by Newcache-style designs and
// as an ablation for the SA cache). Construct it with a non-nil Src:
// PolicyValid (run by every cache constructor) rejects a nil source before
// the first eviction can reach it.
type Random struct {
	Src *rng.Source
}

// OnHit is a no-op for random replacement.
func (Random) OnHit(stamps []uint64, w int, tick uint64) {}

// OnFill is a no-op for random replacement.
func (Random) OnFill(stamps []uint64, w int, tick uint64) {}

// Victim returns a uniformly random way.
func (r Random) Victim(stamps []uint64) int {
	return r.Src.Intn(len(stamps))
}

// VictimMasked returns a uniformly random allowed way, or -1.
func (r Random) VictimMasked(stamps []uint64, allowed uint64) int {
	allowed = waysMask(len(stamps), allowed)
	n := bits.OnesCount64(allowed)
	if n == 0 {
		return -1
	}
	k := r.Src.Intn(n)
	for w := 0; ; w++ {
		if allowed&(1<<uint(w)) == 0 {
			continue
		}
		if k == 0 {
			return w
		}
		k--
	}
}

func (Random) String() string { return "random" }

// rripMax is the RRIP family's distant re-reference prediction value (2-bit
// RRPV, so 3): a way at or beyond it is the next victim. SRRIP inserts at
// rripMax-1 ("long"), BRRIP mostly at rripMax itself.
const rripMax = 3

// rripVictim scans for a way at the distant RRPV, aging the whole set by one
// and rescanning until one appears. Termination is structural: every aging
// pass strictly increases all stamps, so some way reaches rripMax within
// rripMax passes of the current minimum.
func rripVictim(stamps []uint64) int {
	for {
		for w := range stamps {
			if stamps[w] >= rripMax {
				return w
			}
		}
		for w := range stamps {
			stamps[w]++
		}
	}
}

// rripVictimMasked is rripVictim restricted to allowed ways. Aging still
// applies to the whole set (hardware RRPV counters age regardless of lock or
// reservation state); only the victim scan is masked.
func rripVictimMasked(stamps []uint64, allowed uint64) int {
	allowed = waysMask(len(stamps), allowed)
	if allowed == 0 {
		return -1
	}
	for {
		for w := 0; w < len(stamps) && w < 64; w++ {
			if allowed&(1<<uint(w)) != 0 && stamps[w] >= rripMax {
				return w
			}
		}
		for w := range stamps {
			stamps[w]++
		}
	}
}

// SRRIP is static re-reference interval prediction (Jaleel et al., ISCA
// 2010) with 2-bit RRPVs: fills insert at the "long" prediction (rripMax-1),
// hits promote to 0, and victim selection ages the set until a way reaches
// the distant value.
type SRRIP struct{}

// OnHit promotes way w to the near-immediate prediction.
func (SRRIP) OnHit(stamps []uint64, w int, tick uint64) { stamps[w] = 0 }

// OnFill inserts way w at the long re-reference prediction.
func (SRRIP) OnFill(stamps []uint64, w int, tick uint64) { stamps[w] = rripMax - 1 }

// Victim returns the first way at the distant RRPV, aging the set as needed.
func (SRRIP) Victim(stamps []uint64) int { return rripVictim(stamps) }

// VictimMasked returns the first allowed way at the distant RRPV, or -1.
func (SRRIP) VictimMasked(stamps []uint64, allowed uint64) int {
	return rripVictimMasked(stamps, allowed)
}

func (SRRIP) String() string { return "SRRIP" }

// brripEpsilon is BRRIP's long-insertion probability denominator: 1 fill in
// brripEpsilon inserts at the "long" prediction, the rest at the distant
// one, which keeps a thrashing working set from erasing the whole cache.
const brripEpsilon = 32

// BRRIP is bimodal RRIP: SRRIP whose fills insert at the distant prediction
// except with probability 1/brripEpsilon. Every OnFill consumes exactly one
// draw from Src — the draw-count contract the identity tests pin — so BRRIP
// must be wired to the owning cache's Split-derived source, never a shared
// ambient one. Construct it with a non-nil Src (see PolicyValid).
type BRRIP struct {
	Src *rng.Source
}

// OnHit promotes way w to the near-immediate prediction.
func (BRRIP) OnHit(stamps []uint64, w int, tick uint64) { stamps[w] = 0 }

// OnFill inserts way w at the distant prediction, or — with probability
// 1/brripEpsilon — at the long one. One RNG draw per fill, always.
func (b BRRIP) OnFill(stamps []uint64, w int, tick uint64) {
	if b.Src.Intn(brripEpsilon) == 0 {
		stamps[w] = rripMax - 1
	} else {
		stamps[w] = rripMax
	}
}

// Victim returns the first way at the distant RRPV, aging the set as needed.
func (BRRIP) Victim(stamps []uint64) int { return rripVictim(stamps) }

// VictimMasked returns the first allowed way at the distant RRPV, or -1.
func (BRRIP) VictimMasked(stamps []uint64, allowed uint64) int {
	return rripVictimMasked(stamps, allowed)
}

func (BRRIP) String() string { return "BRRIP" }

// PLRU is tree pseudo-LRU: a binary tree over the ways whose internal nodes
// each hold one bit pointing toward the less recently used half. Touching a
// way points every node on its root path away from it; the victim walk
// follows the bits down. The tree bits pack into the per-set stamp words'
// bit space (bit j of the tree lives at stamps[j/64] bit j%64) — for any
// associativity the heap-numbered internal nodes (< 2*ways of them, ragged
// trees included) fit the 64*ways bits the stamp array provides, which is
// how PLRU rides the PR 3/8 SoA layout with no extra storage.
type PLRU struct{}

func plruBit(stamps []uint64, node int) bool {
	return stamps[node>>6]&(1<<(uint(node)&63)) != 0
}

func plruSetBit(stamps []uint64, node int, v bool) {
	if v {
		stamps[node>>6] |= 1 << (uint(node) & 63)
	} else {
		stamps[node>>6] &^= 1 << (uint(node) & 63)
	}
}

// plruTouch points every tree node on way w's root path away from w
// (bit set = victim side is the right half).
func plruTouch(stamps []uint64, w int) {
	lo, hi, node := 0, len(stamps), 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if w < mid {
			plruSetBit(stamps, node, true)
			hi, node = mid, 2*node+1
		} else {
			plruSetBit(stamps, node, false)
			lo, node = mid, 2*node+2
		}
	}
}

// OnHit points the tree away from way w.
func (PLRU) OnHit(stamps []uint64, w int, tick uint64) { plruTouch(stamps, w) }

// OnFill points the tree away from way w.
func (PLRU) OnFill(stamps []uint64, w int, tick uint64) { plruTouch(stamps, w) }

// Victim follows the tree bits down to the pseudo-least-recently-used way.
// The walk is read-only: the subsequent fill's OnFill repoints the path.
func (PLRU) Victim(stamps []uint64) int {
	lo, hi, node := 0, len(stamps), 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if plruBit(stamps, node) {
			lo, node = mid, 2*node+2
		} else {
			hi, node = mid, 2*node+1
		}
	}
	return lo
}

// plruRangeMask returns the allowed-mask bits covering ways [lo, hi).
func plruRangeMask(lo, hi int, allowed uint64) uint64 {
	if lo >= 64 {
		return 0
	}
	if hi > 64 {
		hi = 64
	}
	return allowed >> uint(lo) << uint(64-(hi-lo)) >> uint(64-hi)
}

// VictimMasked follows the tree bits, detouring to the other subtree
// whenever the preferred one contains no allowed way; -1 if none is.
func (PLRU) VictimMasked(stamps []uint64, allowed uint64) int {
	allowed = waysMask(len(stamps), allowed)
	if allowed == 0 {
		return -1
	}
	lo, hi, node := 0, len(stamps), 0
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		right := plruBit(stamps, node)
		if right && plruRangeMask(mid, hi, allowed) == 0 {
			right = false
		} else if !right && plruRangeMask(lo, mid, allowed) == 0 {
			right = true
		}
		if right {
			lo, node = mid, 2*node+2
		} else {
			hi, node = mid, 2*node+1
		}
	}
	return lo
}

func (PLRU) String() string { return "PLRU" }
