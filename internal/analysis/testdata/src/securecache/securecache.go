// Package securecache seeds violations for the simlayer checker's registry
// scope: the directory is named "securecache" so the synthetic corpus path
// testpkg/securecache matches the checker's package scope, standing in for
// randfill/internal/securecache. Concrete designs may only be constructed
// inside the registry's build* factories.
package securecache

import (
	"randfill/internal/cache"
	"randfill/internal/mirage"
	"randfill/internal/rng"
	"randfill/internal/scattercache"
)

// Registry factories are named build* and may construct any design.
func buildScatterCache(geom cache.Geometry, src *rng.Source) cache.Cache {
	return scattercache.NewWithPolicy(geom, src, nil)
}

func buildMirage(geom cache.Geometry, src *rng.Source) cache.Cache {
	return mirage.NewWithPolicy(geom, src, nil)
}

func buildRandfill(geom cache.Geometry) cache.Cache {
	return cache.NewSetAssoc(geom, cache.LRU{})
}

// Helper code must go through the factories instead of constructing designs
// inline — an inline construction bypasses the registry's seed-split
// discipline and cannot be retargeted by design name.
func newAdHocDesign(geom cache.Geometry, src *rng.Source) cache.Cache {
	c := scattercache.NewWithPolicy(geom, src, nil)    // want "outside a level builder"
	_ = mirage.NewWithPolicy(geom, src, nil)           // want "outside a level builder"
	_ = cache.NewSetAssoc(geom, nil)                   // want "outside a level builder"
	_ = scattercache.NewWithPolicy(geom, src, nil)     // want "outside a level builder"
	_ = mirage.NewWithPolicy(geom, src, cache.SRRIP{}) // want "outside a level builder"
	return c
}

// Interface plumbing that only uses constructed caches stays legal.
func occupancyOf(c cache.Cache) int { return c.NumLines() }
