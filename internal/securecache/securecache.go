// Package securecache unifies every secure-cache design in this repository
// behind one interface and one registry, so attacks and experiments can be
// written once and run against the whole design zoo: the paper's random
// fill architecture (internal/cache + internal/core), the four prior-work
// designs it compares against (Newcache, PLcache, RPcache, NoMo), and the
// two later randomization families the occupancy evaluation adds
// (ScatterCache-style skewed indexing, MIRAGE-style global random
// eviction). See DESIGN.md §11.
//
// The port is purely additive: each registered design wraps the existing
// implementation in a thin adapter that supplies the design's own demand
// access path, and consumes no RNG draws beyond what direct construction
// did — which is what keeps the pre-refactor goldens byte-identical.
package securecache

import (
	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
)

// SecureCache is the design-zoo contract: the line-granular cache.Cache
// operations plus the design's own demand-access path (which applies its
// fill policy on a miss), an eviction observer hook, and an occupancy
// observer — the two observables the conformance suite and the occupancy
// battery are built on.
type SecureCache interface {
	cache.Cache

	// Access performs one demand access under the design's fill policy:
	// a Lookup, plus — on a miss — whatever fills the design performs
	// (a demand fill for the structural designs, a no-fill plus random
	// neighbor fills for random fill). Returns whether the access hit.
	// Exactly one hit or miss is counted per call.
	Access(l mem.Line, write bool) bool

	// SetEvictionObserver registers fn to receive every displaced valid
	// line exactly once (fills, invalidates and flushes alike).
	SetEvictionObserver(fn cache.EvictionObserver)

	// Occupancy returns the number of resident lines without perturbing
	// any state — the ground truth behind the occupancy channel.
	Occupancy() int

	// SetParty switches the identity (trust domain, fill owner) under
	// which subsequent Access calls run, for designs that distinguish
	// one: Newcache/RPcache domains, NoMo way reservations, the random
	// fill engine's owner tag. A no-op for identity-blind designs.
	SetParty(id int)
}

// design is the method set every concrete implementation already provides;
// the adapters add Access and SetParty on top of it.
type design interface {
	cache.Cache
	SetEvictionObserver(fn cache.EvictionObserver)
	Occupancy() int
}

// domainAware is implemented by designs with per-domain state (Newcache,
// RPcache).
type domainAware interface {
	SetActiveDomain(int)
}

// demand adapts a structural design (randomization or partitioning in the
// lookup/replacement path, conventional demand fetch) to SecureCache:
// Access is Lookup plus fill-on-miss under the current party's owner id.
type demand struct {
	design
	owner int
}

func (d *demand) Access(l mem.Line, write bool) bool {
	if d.design.Lookup(l, write) {
		return true
	}
	d.design.Fill(l, cache.FillOpts{Dirty: write, Owner: d.owner})
	return false
}

func (d *demand) SetParty(id int) {
	d.owner = id
	if dc, ok := d.design.(domainAware); ok {
		dc.SetActiveDomain(id)
	}
}

// randfill adapts the paper's architecture: a conventional set-associative
// cache whose fill policy is the random fill engine, so Access routes
// through core.Engine (no-fill on miss, random neighbor fills from the
// window).
type randfill struct {
	design
	eng *core.Engine
}

func (r *randfill) Access(l mem.Line, write bool) bool { return r.eng.Access(l, write) }

func (r *randfill) SetParty(id int) { r.eng.SetOwner(id) }
