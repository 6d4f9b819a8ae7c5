package sim

import (
	"math"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/trace"
)

// mshrEntry is one miss-queue slot: an outstanding request to the L2/DRAM.
type mshrEntry struct {
	valid bool
	line  mem.Line
	done  float64
	// fillL1 applies the line to the L1 on completion (normal demand
	// fill, random fill, prefetch). NoFill demand entries have it false.
	fillL1 bool
	// background marks random-fill/prefetch entries, which produce no
	// data for the processor: dependent accesses do not wait on them.
	background bool
	dirty      bool
	offset     int8
	prefetch   bool
}

// Result summarizes a thread's execution.
type Result struct {
	Cycles       float64
	Instructions uint64
	// Hits and Misses are demand L1 accesses; Merged are demand misses
	// that merged with an outstanding miss to the same line (excluded
	// from MPKI, per the paper's MPKI definition in Section VII).
	Hits   uint64
	Misses uint64
	Merged uint64
	// SecretBypass counts accesses that bypassed the L1 entirely
	// (ModeDisableSecret).
	SecretBypass uint64
	// RandomFills and Prefetches count background fills applied to L1.
	RandomFills uint64
	Prefetches  uint64
	// StallCycles accumulates time spent waiting for a free miss-queue
	// entry or for dependence resolution.
	StallCycles float64
	// InformingTraps counts informing-load handler invocations.
	InformingTraps uint64
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.Cycles
}

// MPKI returns demand L1 misses (merges excluded) per kilo-instruction.
func (r Result) MPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.Misses) / float64(r.Instructions)
}

// Sub returns the difference r - prev of two snapshots of the same
// thread's counters, for steady-state measurement: warm the caches with one
// pass, snapshot, run the measured pass, and subtract.
func (r Result) Sub(prev Result) Result {
	return Result{
		Cycles:         r.Cycles - prev.Cycles,
		Instructions:   r.Instructions - prev.Instructions,
		Hits:           r.Hits - prev.Hits,
		Misses:         r.Misses - prev.Misses,
		Merged:         r.Merged - prev.Merged,
		SecretBypass:   r.SecretBypass - prev.SecretBypass,
		RandomFills:    r.RandomFills - prev.RandomFills,
		Prefetches:     r.Prefetches - prev.Prefetches,
		StallCycles:    r.StallCycles - prev.StallCycles,
		InformingTraps: r.InformingTraps - prev.InformingTraps,
	}
}

// HitRate returns demand hit rate over demand accesses.
func (r Result) HitRate() float64 {
	total := r.Hits + r.Misses + r.Merged
	if total == 0 {
		return 0
	}
	return float64(r.Hits) / float64(total)
}

// informingTrapCycles is the exception-delivery overhead of one informing
// load trap (pipeline flush + handler entry/exit).
const informingTrapCycles = 50

// Thread is one hardware thread: a fill-policy engine over the shared L1,
// a private miss queue, and a cycle clock.
type Thread struct {
	machine *Machine
	cfg     ThreadConfig
	engine  *core.Engine
	// domainL1 is non-nil when the L1 is domain-aware; the thread
	// selects its trust domain before every access (part of switching
	// the hardware thread context).
	domainL1 cache.DomainAware
	cycle    float64
	// dataReady is when the most recent demand read's data becomes
	// available; a Dependent access cannot issue before it.
	dataReady float64
	mshr      []mshrEntry
	// inflight counts valid miss-queue entries, earliest is the smallest
	// done among them (+Inf when none) and background counts those that
	// are background fills. issue maintains all three on insert and retire
	// on removal, so the per-access retire returns at once while nothing is
	// due and serviceFills reads the reservation count without a rescan.
	inflight   int
	earliest   float64
	background int
	// fillQueue holds random-fill/prefetch requests waiting for a free
	// miss-queue slot (the "random fill queue" of Figure 3, which waits
	// for idle cycles). It is a head-indexed ring: fillHead marks the next
	// request to issue, and the slice is reset in place once drained, so
	// steady-state enqueue/dequeue reuses one backing array instead of
	// reslicing-and-appending fresh storage per request.
	fillQueue []core.Request
	fillHead  int
	res       Result
}

// fillPending returns the number of queued background fills.
func (t *Thread) fillPending() int { return len(t.fillQueue) - t.fillHead }

// Engine returns the thread's random fill engine (to reprogram the window
// mid-run, modelling the set_RR system call).
func (t *Thread) Engine() *core.Engine { return t.engine }

// Cycle returns the thread's current cycle.
func (t *Thread) Cycle() float64 { return t.cycle }

// Result returns the thread's statistics with the clock snapshot.
func (t *Thread) Result() Result {
	r := t.res
	r.Cycles = t.cycle
	return r
}

// issue places the valid entry e in miss-queue slot slot, keeping inflight,
// earliest and background current.
func (t *Thread) issue(slot int, e mshrEntry) {
	t.mshr[slot] = e
	t.inflight++
	if e.done < t.earliest {
		t.earliest = e.done
	}
	if e.background {
		t.background++
	}
}

// retire completes every miss-queue entry finished by time now, applying
// its L1 fill. It returns at once while no entry is due (now < earliest).
func (t *Thread) retire(now float64) {
	if now < t.earliest {
		return
	}
	t.earliest = math.Inf(1)
	for i := range t.mshr {
		e := &t.mshr[i]
		if !e.valid {
			continue
		}
		if e.done > now {
			if e.done < t.earliest {
				t.earliest = e.done
			}
			continue
		}
		if e.fillL1 {
			t.machine.fillL1(e.line, cache.FillOpts{
				Dirty:  e.dirty,
				Owner:  t.cfg.Owner,
				Offset: e.offset,
			})
			if e.background {
				if e.prefetch {
					t.res.Prefetches++
				} else {
					t.res.RandomFills++
				}
			}
			if p := t.machine.Prefetcher; p != nil {
				p.OnFill(e.line, e.prefetch)
			}
		}
		e.valid = false
		t.inflight--
		if e.background {
			t.background--
		}
	}
}

// waitData blocks the thread until the most recent demand read's data is
// available: the model of a load-to-use dependence. An out-of-order core
// overlaps independent misses freely; a Dependent access serializes behind
// exactly the previous load, not the whole miss queue.
func (t *Thread) waitData() {
	if t.dataReady > t.cycle {
		t.res.StallCycles += t.dataReady - t.cycle
		t.cycle = t.dataReady
	}
	t.retire(t.cycle)
}

// freeSlot returns a free miss-queue slot index for a demand request,
// stalling the thread until the earliest outstanding entry completes if the
// queue is full. Arbitration is FIFO: background fill requests that arrived
// in the fill queue before this demand miss are issued into freed slots
// first — fills and demands share the miss queue in arrival order rather
// than demands always winning (which would starve the random fill engine
// whenever the miss queue is saturated).
func (t *Thread) freeSlot() int {
	for {
		t.serviceFills()
		for i := range t.mshr {
			if !t.mshr[i].valid {
				return i
			}
		}
		// Queue full: wait for the earliest completion.
		t.res.StallCycles += t.earliest - t.cycle
		t.cycle = t.earliest
		t.retire(t.cycle)
	}
}

// trySlot returns a free slot without stalling, or -1.
func (t *Thread) trySlot() int {
	for i := range t.mshr {
		if !t.mshr[i].valid {
			return i
		}
	}
	return -1
}

// pending reports whether line has an outstanding miss-queue entry, and its
// index.
func (t *Thread) pending(line mem.Line) int {
	if t.inflight == 0 {
		return -1
	}
	for i := range t.mshr {
		if t.mshr[i].valid && t.mshr[i].line == line {
			return i
		}
	}
	return -1
}

// enqueueFill adds a background fill request to the fill queue, dropping it
// if the queue is full (the queue depth comes from Config.FillQueueCap).
func (t *Thread) enqueueFill(r core.Request) {
	if t.fillPending() >= t.machine.cfg.FillQueueCap {
		return
	}
	t.fillQueue = append(t.fillQueue, r)
}

// serviceFills issues queued background fills into free miss-queue slots.
// One slot is reserved for demand misses: background fills never occupy the
// whole miss queue, so a demand miss waits behind at most MissQueue-1
// fills (standard MSHR reservation for demand traffic).
func (t *Thread) serviceFills() {
	for t.fillPending() > 0 {
		if len(t.mshr) > 1 && t.background >= len(t.mshr)-1 {
			return
		}
		slot := t.trySlot()
		if slot < 0 {
			return
		}
		r := t.fillQueue[t.fillHead]
		t.fillHead++
		// Dropped if it hits in the tag array by now, or is already in
		// flight. (The tag check is skipped under the ablation that
		// keeps redundant fills.)
		if !t.cfg.KeepRedundantFills && t.engine.Cache().Probe(r.Line) {
			continue
		}
		if t.pending(r.Line) >= 0 {
			continue
		}
		lat := t.machine.fetchBelow(r.Line, false)
		t.issue(slot, mshrEntry{
			valid:      true,
			line:       r.Line,
			done:       t.cycle + float64(lat),
			fillL1:     true,
			background: true,
			offset:     r.Offset,
			prefetch:   r.Type == prefetchRequest,
		})
	}
	// Drained: rewind the ring so the backing array is reused.
	t.fillQueue = t.fillQueue[:0]
	t.fillHead = 0
}

// prefetchRequest is a core.RequestType value reserved for prefetcher
// requests travelling through the same fill queue.
const prefetchRequest core.RequestType = 255

// Step executes one trace access and advances the thread's clock, through
// the same per-access body the compiled replay loop runs.
func (t *Thread) Step(a mem.Access) {
	t.step(a.Instructions(), a.Line(), a.Kind == mem.Write, a.Dependent, a.Secret, nil)
}

// step is the one per-access body behind every replay path (Step, Run,
// ReplayBatch/RunCompiled and the SMT co-run): the prologue (trust-domain
// switch, instruction accounting, retirement, dependence stall) plus the
// access itself. sa is the L1's devirtualized SetAssoc, chosen once per
// replay call by hitProbe, or nil to take the full access dispatch.
//
// The fast path changes cost, never behaviour: its Lookup is the very call
// access makes through the cache interface, a hit then runs access's hit
// path and a miss continues in miss, the part of access after its lookup.
// So the access searches the L1 set once. The retirement call is skipped
// while no entry is due and the fill-queue call while no fill is queued,
// where both are no-ops.
func (t *Thread) step(instr uint64, line mem.Line, write, dependent, secret bool, sa *cache.SetAssoc) {
	if t.domainL1 != nil {
		t.domainL1.SetActiveDomain(t.cfg.Owner)
	}
	t.res.Instructions += instr
	t.cycle += float64(instr) / IssueWidth
	if t.cycle >= t.earliest {
		t.retire(t.cycle)
	}

	if dependent {
		t.waitData()
	}

	if sa == nil || (secret && t.cfg.Mode == ModeDisableSecret) {
		t.access(line, write, secret)
		return
	}
	if !sa.Lookup(line, write) {
		t.miss(line, write, secret)
		return
	}
	t.res.Hits++
	if !write {
		t.dataReady = t.cycle + L1HitLat
	}
	if t.fillPending() != 0 {
		t.serviceFills()
	}
}

// hitProbe returns the L1 as a *cache.SetAssoc, whose devirtualized Lookup
// is the replay loop's fast path, or nil when the L1 is another design or a
// prefetcher is attached (it must observe every L1 hit). The SA, PLcache
// and NoMo L1s are all *cache.SetAssoc: lock bits and way masks constrain
// fills, never hits.
func (t *Thread) hitProbe() *cache.SetAssoc {
	if t.machine.Prefetcher != nil {
		return nil
	}
	sa, _ := t.engine.Cache().(*cache.SetAssoc)
	return sa
}

// access performs one demand access against the L1: the mode dispatch, the
// lookup, and on a miss the miss path. It is Step without the prologue.
func (t *Thread) access(line mem.Line, write, secret bool) {
	if t.cfg.Mode == ModeDisableSecret && secret {
		// Security-critical access with the cache disabled: straight
		// to the L2, no L1 lookup or fill. The request still needs a
		// miss-queue entry (it is a demand fetch).
		t.res.SecretBypass++
		slot := t.freeSlot()
		lat := t.machine.fetchBelow(line, write)
		t.issue(slot, mshrEntry{
			valid: true,
			line:  line,
			done:  t.cycle + float64(lat),
		})
		if !write {
			t.dataReady = t.mshr[slot].done
		}
		t.serviceFills()
		return
	}

	if t.engine.Cache().Lookup(line, write) {
		t.res.Hits++
		if !write {
			t.dataReady = t.cycle + L1HitLat
		}
		if p := t.machine.Prefetcher; p != nil {
			for _, pl := range p.OnHit(line) {
				t.enqueueFill(core.Request{Type: prefetchRequest, Line: pl, Offset: 1})
			}
		}
		t.serviceFills()
		return
	}
	t.miss(line, write, secret)
}

// miss is a demand access's path after its L1 lookup missed: the merge with
// an outstanding entry, the informing-load trap, or the fill engine's
// requests, then the prefetcher and the fill queue.
func (t *Thread) miss(line mem.Line, write, secret bool) {
	// A miss to a line already in flight merges with the outstanding entry
	// (no new request, excluded from MPKI).
	if p := t.pending(line); p >= 0 {
		t.res.Merged++
		if !write && t.mshr[p].done > t.dataReady {
			t.dataReady = t.mshr[p].done
		}
		t.serviceFills()
		return
	}

	t.res.Misses++
	if t.cfg.Mode == ModeInforming && secret {
		// Informing load: the miss traps to the user-level handler,
		// which reloads the whole security-critical data set before
		// execution resumes. The trap overhead plus the reload misses
		// are fully exposed (the handler runs in program order).
		t.cycle += informingTrapCycles
		for _, reg := range t.cfg.SecretRegions {
			for _, l := range reg.Lines() {
				if t.engine.Cache().Probe(l) {
					continue
				}
				lat := t.machine.fetchBelow(l, false)
				// Handler loads overlap pairwise at best.
				t.cycle += float64(lat) / 2
				t.machine.fillL1(l, cache.FillOpts{Owner: t.cfg.Owner})
			}
		}
		t.res.InformingTraps++
		// The faulting access now hits the freshly reloaded line.
		t.engine.Cache().Lookup(line, write)
		t.serviceFills()
		return
	}
	reqs := t.engine.OnMiss(line)
	for k := 0; k < reqs.Len(); k++ {
		r := reqs.At(k)
		switch r.Type {
		case core.Normal, core.NoFill:
			slot := t.freeSlot()
			lat := t.machine.fetchBelow(line, write)
			t.issue(slot, mshrEntry{
				valid:  true,
				line:   line,
				done:   t.cycle + float64(lat),
				fillL1: r.Type == core.Normal,
				dirty:  write,
			})
			if !write {
				t.dataReady = t.mshr[slot].done
			}
		case core.RandomFill:
			t.enqueueFill(r)
		}
	}
	if p := t.machine.Prefetcher; p != nil {
		for _, pl := range p.OnMiss(line) {
			t.enqueueFill(core.Request{Type: prefetchRequest, Line: pl, Offset: 1})
		}
	}
	t.serviceFills()
}

// ReplayBatch executes a precompiled trace. It is observably identical to
// stepping the trace one access at a time — same counters, same cycle
// arithmetic, and exactly the same RNG draws — because every access runs the
// per-access body Step runs. What changes is the cost: the loop streams
// 8-byte packed words instead of 24-byte mem.Access records, and a SetAssoc
// L1 answers hits through its devirtualized probe (see step). Every L1 design
// replays the words; escape records decode through Compiled.At.
func (t *Thread) ReplayBatch(ct *trace.Compiled) {
	t.replay(ct, 0, math.Inf(1), t.hitProbe())
}

// replay runs ct's words from index i through the per-access body until the
// end of the trace or until the thread's clock reaches bound, and returns
// the index of the next word to run.
func (t *Thread) replay(ct *trace.Compiled, i int, bound float64, sa *cache.SetAssoc) int {
	words := ct.Words()
	for ; i < len(words) && t.cycle < bound; i++ {
		if w := words[i]; trace.IsEscape(w) {
			a := ct.At(i)
			t.step(a.Instructions(), a.Line(), a.Kind == mem.Write, a.Dependent, a.Secret, sa)
		} else {
			t.step(trace.Instructions(w), trace.Line(w), trace.Write(w), trace.Dependent(w), trace.Secret(w), sa)
		}
	}
	return i
}

// RunCompiled executes an entire precompiled trace, drains it, and returns
// the thread's result.
func (t *Thread) RunCompiled(ct *trace.Compiled) Result {
	t.ReplayBatch(ct)
	t.Drain()
	return t.Result()
}

// Drain waits for all outstanding requests to complete and applies their
// fills, advancing the clock to the last completion. Queued background
// fills get a single round of issue: serviceFills keeps one miss-queue
// entry for demand misses, so with more than one entry at most
// MissQueue-1 fills are issued and land here (one with a single entry),
// and the rest stay queued for the thread's next access.
func (t *Thread) Drain() {
	maxDone := t.cycle
	for i := range t.mshr {
		if t.mshr[i].valid && t.mshr[i].done > maxDone {
			maxDone = t.mshr[i].done
		}
	}
	t.cycle = maxDone
	t.retire(t.cycle)
	// Issue queued background fills into the now empty miss queue, up to
	// the demand reservation, and let the issued ones land. Fills beyond
	// that stay queued: Drain can return with fillPending() > 0.
	t.serviceFills()
	for i := range t.mshr {
		if t.mshr[i].valid && t.mshr[i].done > t.cycle {
			t.cycle = t.mshr[i].done
		}
	}
	t.retire(t.cycle)
}
