// Package core implements the paper's primary contribution: the random fill
// cache architecture (Section IV). It layers a random fill engine over any
// cache.Cache (conventional set-associative, Newcache, PLcache), replacing
// the demand fetch policy with a security-aware fill strategy:
//
//   - On a cache miss, the demand-requested line is forwarded to the
//     processor WITHOUT filling the cache (a "nofill" request, using the
//     critical-word-first path).
//   - Instead, the random fill engine generates a "random fill" request for
//     a uniformly random line within the neighborhood window [i-a, i+b] of
//     the missing line i. The request enters a FIFO random fill queue, is
//     dropped if it already hits in the tag array, and otherwise fills the
//     cache (without sending data to the processor).
//   - With the window at [0,0] the engine is disabled and the cache behaves
//     exactly like a conventional demand-fetch cache.
//
// The window is programmed through the set_RR system call (Table II),
// modelled here by SetRR; the range registers are
// per-process context, so an SMT simulation instantiates one Engine per
// hardware thread over a shared cache.
package core

import (
	"fmt"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// RequestType classifies miss-queue entries (Section IV.B.1).
type RequestType uint8

const (
	// Normal is a demand fetch that fills the cache and forwards data to
	// the processor (conventional demand fill).
	Normal RequestType = iota
	// NoFill is a demand fetch that forwards data to the processor
	// without filling the cache.
	NoFill
	// RandomFill fills the cache without sending data to the processor.
	RandomFill
)

func (t RequestType) String() string {
	switch t {
	case Normal:
		return "normal"
	case NoFill:
		return "nofill"
	case RandomFill:
		return "randomfill"
	default:
		return fmt.Sprintf("RequestType(%d)", uint8(t))
	}
}

// Request is one entry of the (modelled) miss queue / random fill queue.
// The line comes first so the two one-byte fields share a word: 16 bytes.
type Request struct {
	Line mem.Line
	Type RequestType
	// Offset is the line distance from the triggering demand miss
	// (0 for Normal/NoFill); recorded into the filled line's metadata for
	// the spatial-locality profiler.
	Offset int8
}

// Requests is the request list a demand miss produces: one demand entry
// (Normal or NoFill) for the missing line, then at most one RandomFill. It
// holds the demand line and type, the fill request and whether there is
// one: four fields and 32 bytes, so OnMiss returns it in registers and the
// miss path neither allocates nor copies it through memory — OnMiss runs
// millions of times per experiment cell.
type Requests struct {
	line    mem.Line
	fill    Request
	typ     RequestType
	hasFill bool
}

// Len returns the number of requests (1 or 2).
func (r Requests) Len() int {
	if r.hasFill {
		return 2
	}
	return 1
}

// At returns request i in miss-queue arrival order (the demand request
// first).
func (r Requests) At(i int) Request {
	if i == 0 {
		return Request{Line: r.line, Type: r.typ}
	}
	if i != 1 || !r.hasFill {
		panic("core: Requests index out of range")
	}
	return r.fill
}

// Stats counts the engine's externally visible decisions.
type Stats struct {
	NormalFills   uint64 // demand fills issued (window [0,0])
	NoFills       uint64 // demand misses forwarded without fill
	RandomIssued  uint64 // random fill requests that filled the cache
	RandomDropped uint64 // random fill requests dropped on a tag hit
	RandomClamped uint64 // random fill requests discarded for address underflow
}

// Engine is the random fill engine of Figure 3(b): range registers, a
// bounded random number generator, and a random fill queue, attached to one
// hardware thread's view of a cache.
type Engine struct {
	cache cache.Cache
	gen   *rng.WindowGenerator
	owner int
	stats Stats
	// noDrop disables the tag-array check that drops random fill
	// requests whose target is already cached (an ablation knob; the
	// hardware design always drops).
	noDrop bool
}

// NewEngine attaches a random fill engine to c, drawing randomness from src.
// The window starts at [0,0] (disabled), the architectural default.
func NewEngine(c cache.Cache, src *rng.Source) *Engine {
	return &Engine{
		cache: c,
		gen:   rng.NewWindowGenerator(src),
		owner: cache.NoOwner,
	}
}

// SetOwner sets the process id recorded on lines this engine fills.
func (e *Engine) SetOwner(owner int) { e.owner = owner }

// SetDropOnHit controls whether random fill requests that hit in the tag
// array are dropped (the default, per Section IV.B.2). Disabling it is an
// ablation: redundant fills are issued and refresh already-present lines.
func (e *Engine) SetDropOnHit(drop bool) { e.noDrop = !drop }

// Cache returns the underlying cache.
func (e *Engine) Cache() cache.Cache { return e.cache }

// Stats returns the engine's live decision counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// SetRR models the set_RR(a, b) system call: program the range registers so
// the random fill window is [i-a, i+b]. SetRR(0, 0) disables random fill.
func (e *Engine) SetRR(a, b int) { e.gen.SetWindow(rng.Window{A: a, B: b}) }

// Window returns the currently programmed window.
func (e *Engine) Window() rng.Window { return e.gen.Window() }

// Enabled reports whether random fill is active (window not [0,0]).
func (e *Engine) Enabled() bool { return !e.gen.Window().Zero() }

// OnMiss decides how to handle a demand miss to line i, returning the
// requests the miss queue would receive. With the window at [0,0] it
// returns a single Normal request. Otherwise it returns a NoFill request
// for i plus, if the randomly chosen neighbor misses the tag array and does
// not underflow the address space, a RandomFill request for the neighbor.
//
// OnMiss only decides; it does not touch the cache. Use Access for the
// combined functional behaviour.
func (e *Engine) OnMiss(i mem.Line) Requests {
	if !e.Enabled() {
		e.stats.NormalFills++
		return Requests{line: i, typ: Normal}
	}
	e.stats.NoFills++
	reqs := Requests{line: i, typ: NoFill}

	off := e.gen.Offset()
	if off < 0 && uint64(-off) > uint64(i) {
		// The window extends below address zero; the request is
		// discarded (there is no memory there to fetch).
		e.stats.RandomClamped++
		return reqs
	}
	j := mem.Line(int64(i) + int64(off))
	if !e.noDrop && e.cache.Probe(j) {
		// Random fill requests that hit in the tag array are dropped
		// (Section IV.B.2).
		e.stats.RandomDropped++
		return reqs
	}
	e.stats.RandomIssued++
	reqs.fill = Request{Line: j, Type: RandomFill, Offset: clampOffset(off)}
	reqs.hasFill = true
	return reqs
}

func clampOffset(off int) int8 {
	if off > 127 {
		return 127
	}
	if off < -128 {
		return -128
	}
	return int8(off)
}

// Access performs one demand access functionally: lookup, and on a miss,
// apply the engine's fill policy to the cache immediately. It returns true
// on a cache hit. This is the path used by the security analyses and
// attacks, where only hit/miss behaviour matters; the timing simulator in
// internal/sim drives OnMiss itself so it can model miss-queue occupancy.
func (e *Engine) Access(line mem.Line, write bool) bool {
	if e.cache.Lookup(line, write) {
		return true
	}
	reqs := e.OnMiss(line)
	for k := 0; k < reqs.Len(); k++ {
		r := reqs.At(k)
		switch r.Type {
		case Normal:
			e.cache.Fill(r.Line, cache.FillOpts{Dirty: write, Owner: e.owner})
		case NoFill:
			// Data forwarded to the processor; no cache change.
			// A write miss under nofill writes through to memory.
		case RandomFill:
			e.cache.Fill(r.Line, cache.FillOpts{Owner: e.owner, Offset: r.Offset})
		}
	}
	return false
}

func (e *Engine) String() string {
	return fmt.Sprintf("RandomFill(window=%v over %v)", e.Window(), e.cache)
}
