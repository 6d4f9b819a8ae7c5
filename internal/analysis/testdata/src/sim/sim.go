// Package sim seeds violations for the simlayer checker: the directory is
// named "sim" so the synthetic corpus path testpkg/sim matches the
// checker's package scope, standing in for randfill/internal/sim. Concrete
// cache constructors are only allowed inside functions named build*.
package sim

import (
	"randfill/internal/cache"
	"randfill/internal/mirage"
	"randfill/internal/newcache"
	"randfill/internal/nomo"
	"randfill/internal/plcache"
	"randfill/internal/rng"
	"randfill/internal/rpcache"
	"randfill/internal/scattercache"
)

// Level builders may construct any concrete architecture.
func buildSA(geom cache.Geometry) cache.Cache {
	return cache.NewSetAssoc(geom, cache.LRU{})
}

func buildSecureStack(geom cache.Geometry, src *rng.Source) []cache.Cache {
	return []cache.Cache{
		newcache.New(geom.SizeBytes, 4, src),
		plcache.NewWithPolicy(geom, nil),
		scattercache.NewWithPolicy(geom, src, nil),
		mirage.NewWithPolicy(geom, src, nil),
	}
}

// Policy-parameterized construction is equally builder-only.
func buildPolicyStack(geom cache.Geometry, src *rng.Source, pol cache.Policy) []cache.Cache {
	return []cache.Cache{
		newcache.NewWithPolicy(geom.SizeBytes, 4, src, pol),
		plcache.NewWithPolicy(geom, pol),
		rpcache.NewWithPolicy(geom, src, pol),
		nomo.NewWithPolicy(geom, 2, 1, pol),
		scattercache.NewWithPolicy(geom, src, pol),
		mirage.NewWithPolicy(geom, src, pol),
	}
}

// Wiring code must go through the builders instead.
func wireMachine(geom cache.Geometry, src *rng.Source) cache.Cache {
	l2 := cache.NewSetAssoc(geom, cache.LRU{})     // want "outside a level builder"
	_ = newcache.New(geom.SizeBytes, 4, src)       // want "outside a level builder"
	_ = plcache.NewWithPolicy(geom, nil)           // want "outside a level builder"
	_ = scattercache.NewWithPolicy(geom, src, nil) // want "outside a level builder"
	_ = mirage.NewWithPolicy(geom, src, nil)       // want "outside a level builder"
	return l2
}

// The NewWithPolicy constructors are constructors like any other: wiring
// code may not call them inline either.
func wirePolicyMachine(geom cache.Geometry, src *rng.Source, pol cache.Policy) cache.Cache {
	l1 := newcache.NewWithPolicy(geom.SizeBytes, 4, src, pol) // want "outside a level builder"
	_ = plcache.NewWithPolicy(geom, pol)                      // want "outside a level builder"
	_ = rpcache.NewWithPolicy(geom, src, pol)                 // want "outside a level builder"
	_ = nomo.NewWithPolicy(geom, 2, 1, pol)                   // want "outside a level builder"
	_ = scattercache.NewWithPolicy(geom, src, pol)            // want "outside a level builder"
	_ = mirage.NewWithPolicy(geom, src, pol)                  // want "outside a level builder"
	return l1
}

// Non-constructor calls into the cache packages stay legal anywhere.
func probeAll(c cache.Cache) bool {
	return c.Probe(1) && c.Lookup(2, false)
}

// Same-name functions from unrelated packages are not constructors.
func newUnrelated() int { return localNew() }

func localNew() int { return 1 }

// Batch replay entry points (PR 8) are wiring code, not builders: the
// devirtualizing level-0 type assertion and its Lookup fast probe are fine
// anywhere, but a replay path may not construct its own cache inline — it
// must replay whatever the configuration-driven builders assembled.
func ReplayBatch(cs []cache.Cache) int {
	hits := 0
	for _, c := range cs {
		if sa, ok := c.(*cache.SetAssoc); ok && sa.Lookup(1, false) {
			hits++
		}
	}
	return hits
}

func ReplayShards(geom cache.Geometry, windows int) []cache.Cache {
	out := make([]cache.Cache, windows)
	for i := range out {
		out[i] = cache.NewSetAssoc(geom, cache.LRU{}) // want "outside a level builder"
	}
	return out
}
