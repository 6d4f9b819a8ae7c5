// Package plcache implements PLcache (Wang & Lee, ISCA 2007): a
// partition-based secure cache that performs fine-grained dynamic
// partitioning by locking protected cache lines in place. Each line carries
// a process id and a locking status bit; special load/store instructions set
// or clear the lock bit on the lines they touch.
//
// Replacement semantics (the part that matters for both security and the
// paper's performance comparison):
//
//   - a locked line is never chosen as a replacement victim;
//   - if every way of the target set is locked, the incoming line is not
//     cached at all — the data is forwarded to the processor uncached and
//     the fill is "refused" (cache.Victim.Refused).
//
// cache.SetAssoc honours lock bits with exactly these semantics, so a
// PLcache is a SetAssoc built by NewWithPolicy. The paper's
// "PLcache+preload" baseline (Kong et al., HPCA 2009) preloads all
// security-critical tables with locking loads at the start of the
// computation (and on every context switch); Preload implements that
// routine.
package plcache

import (
	"randfill/internal/cache"
	"randfill/internal/mem"
)

// NewWithPolicy builds a PLcache whose victim selection among unlocked
// ways follows pol (nil selects the historical LRU default). Locking is
// enforced through the policy's masked victim path, so it panics on a
// geometry cache.CheckMaskedGeometry rejects.
func NewWithPolicy(geom cache.Geometry, pol cache.Policy) *cache.SetAssoc {
	if err := cache.CheckMaskedGeometry(geom); err != nil {
		panic(err)
	}
	return cache.NewSetAssoc(geom, pol)
}

// Preload installs and locks every cache line of each region in c on
// behalf of owner, modelling the PLcache+preload routine run before the
// cryptographic computation and on context switches. It returns the number
// of lines that could not be locked because their sets were exhausted (all
// ways already locked) — with many tables and a small cache the preload
// itself can fail to pin everything, the scalability problem the paper
// highlights.
func Preload(c cache.Cache, owner int, regions ...mem.Region) (unlockable int) {
	for _, r := range regions {
		for _, l := range r.Lines() {
			if c.Fill(l, cache.FillOpts{Lock: true, Owner: owner}).Refused() {
				unlockable++
			}
		}
	}
	return unlockable
}
