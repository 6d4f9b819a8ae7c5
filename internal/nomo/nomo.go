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
// any other owner only the shared pool. Way reservation is enforced through
// the policy's masked victim path, so the associativity must not exceed 64
// ways. It panics if the reservation exceeds the associativity (a hardware
// configuration error).
func NewWithPolicy(geom cache.Geometry, threads, reserved int, pol cache.Policy) *cache.SetAssoc {
	cache.ValidateGeometry(geom)
	if threads < 1 || reserved < 0 || threads*reserved > geom.Ways {
		panic(fmt.Sprintf("nomo: %d threads x %d reserved ways exceed %d-way sets",
			threads, reserved, geom.Ways))
	}
	if geom.Ways > 64 {
		panic(fmt.Sprintf("nomo: masked victim selection requires <= 64 ways, have %d", geom.Ways))
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
