// Package tlb extends the random fill idea to the other storage structure
// the paper's conclusion names: "reuse based attacks ... are threats
// especially relevant to storage structures (like caches and TLBs) which
// exploit the locality of data accesses". A TLB is a small fully-associative
// cache of page translations, so a victim whose secret-dependent accesses
// span multiple pages leaks page-granular information through it — and the
// same de-correlated fill strategy closes that channel.
//
// The implementation reuses the core cache machinery: translations are a
// fully-associative cache keyed by page number, and the random fill engine
// layers over it unchanged (a random neighbor *page's* translation is
// fetched instead of the demanded one).
package tlb

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// PageSize is the translation granularity in bytes.
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Page is a virtual page number.
type Page uint64

// PageOf returns the page containing address a.
func PageOf(a mem.Addr) Page { return Page(a >> PageShift) }

// TLB is a fully-associative, LRU translation lookaside buffer with an
// optional random fill window (the window is in units of pages).
type TLB struct {
	entries *cache.SetAssoc
	engine  *core.Engine
}

// New builds a TLB with the given number of entries. A typical L1 DTLB has
// 64. It panics on a non-positive entry count.
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
func New(entries int, src *rng.Source) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("tlb: invalid entry count %d", entries))
	}
	// A fully-associative cache with one set; "lines" are page numbers.
	c := cache.NewSetAssoc(cache.Geometry{SizeBytes: entries * mem.LineSize, Ways: entries}, cache.LRU{})
	return &TLB{
		entries: c,
		engine:  core.NewEngine(c, src),
	}
}

// SetWindow programs the random fill window, in pages ([0,0] = demand
// fill, the conventional TLB).
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
func (t *TLB) SetWindow(w rng.Window) { t.engine.SetRR(w.A, w.B) }

// Window returns the programmed window.
func (t *TLB) Window() rng.Window { return t.engine.Window() }

// Translate performs a translation for address a: a TLB hit returns true;
// a miss walks the page table (not modelled beyond the fill policy) and
// applies the fill strategy — demand fill of the missing translation, or a
// random fill within the window.
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
func (t *TLB) Translate(a mem.Addr) bool {
	return t.engine.Access(mem.Line(PageOf(a)), false)
}

// Cached reports whether the translation for address a is resident, without
// perturbing replacement state (the attacker's reload-timing oracle).
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
func (t *TLB) Cached(a mem.Addr) bool {
	return t.entries.Probe(mem.Line(PageOf(a)))
}

// FlushPage evicts the translation for the page containing a (invlpg).
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
func (t *TLB) FlushPage(a mem.Addr) bool {
	return t.entries.Invalidate(mem.Line(PageOf(a)))
}

// FlushAll drops every translation (a full TLB shootdown / context switch
// without PCIDs).
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
func (t *TLB) FlushAll() { t.entries.Flush() }

// Entries returns the TLB capacity.
func (t *TLB) Entries() int { return t.entries.NumLines() }

// Resident returns the number of currently cached translations.
//
//lint:ignore unused internal/tlb stays: the _perfbench layer map names the package, so TestLayerMapComplete fails if it goes
func (t *TLB) Resident() int { return len(t.entries.Contents()) }

// Stats returns the underlying hit/miss counters.
func (t *TLB) Stats() *cache.Stats { return t.entries.Stats() }

func (t *TLB) String() string {
	return fmt.Sprintf("TLB(%d entries, window %v)", t.Entries(), t.Window())
}
