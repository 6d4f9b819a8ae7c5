// Package nomo implements the NoMo cache (Domnitser et al., TACO 2012): a
// partition-based secure cache for SMT processors that statically reserves
// a number of ways per set for each hardware thread. A thread's fills may
// only evict lines from its own reserved ways or from the unreserved pool,
// so a co-running attacker cannot monopolize a set and observe the victim's
// evictions deterministically. Hits are served from any way: the partition
// constrains replacement, not lookup.
//
// A NoMo cache is a cache.SetAssoc whose per-owner way masks
// (SetAssoc.RestrictWays) encode the reservation; NewWithPolicy builds
// one.
//
// As the paper notes (Section III.A), NoMo "only works for the case when
// the victim and the attacker processes are executing simultaneously in an
// SMT processor" — it partitions contention, not reuse, and so defeats
// neither Flush-Reload nor collision attacks.
package nomo

import (
	"fmt"

	"randfill/internal/cache"
)

// NewWithPolicy builds a NoMo cache whose victim selection among a thread's
// eligible ways follows pol (nil selects the historical LRU default). The
// first threads*reserved ways of each set are partitioned, `reserved` per
// thread in thread order, and the rest are shared. Thread t (the fill's
// cache.FillOpts.Owner) may fill its own reserved ways and the shared pool;
// any other owner only the shared pool. It panics on a shape Check rejects
// (a hardware configuration error).
func NewWithPolicy(geom cache.Geometry, threads, reserved int, pol cache.Policy) *cache.SetAssoc {
	if err := Check(geom, threads, reserved); err != nil {
		panic(err)
	}
	c := cache.NewSetAssoc(geom, pol)
	shared := (uint64(1)<<uint(geom.Ways) - 1) &^ (uint64(1)<<uint(threads*reserved) - 1)
	perThread := make([]uint64, threads)
	for t := range perThread {
		perThread[t] = (uint64(1)<<uint(reserved)-1)<<uint(t*reserved) | shared
	}
	c.RestrictWays(perThread, shared)
	return c
}

// Check returns nil if NewWithPolicy builds a NoMo cache of this shape, and
// otherwise an error. Way reservation goes through the policy's masked
// victim path, so geom must pass cache.CheckMaskedGeometry, and the
// threads*reserved reserved ways must fit in one set.
func Check(geom cache.Geometry, threads, reserved int) error {
	if err := cache.CheckMaskedGeometry(geom); err != nil {
		return err
	}
	if threads < 1 || reserved < 0 || threads*reserved > geom.Ways {
		return fmt.Errorf("nomo: %d threads x %d reserved ways exceed %d-way sets",
			threads, reserved, geom.Ways)
	}
	return nil
}
