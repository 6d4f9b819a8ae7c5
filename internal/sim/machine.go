package sim

import (
	"math"
	"sync"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/hierarchy"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// Machine is one simulated core (possibly SMT) over an N-level cache
// hierarchy (by default the Table IV two-level configuration: a private L1
// data cache, a unified L2, and a DRAM latency model). Threads are created
// with NewThread and share every level. The machine owns levels 1..N-1
// through an internal/hierarchy.Hierarchy with one uniform miss path; the
// L1 (level 0) is driven by the per-thread fill engines, which model MSHR
// occupancy and the random fill queue.
//
// A machine comes from New, which always allocates, or from Acquire, which
// recycles one that Release returned to a package-level pool. Either way
// it is exactly the machine New builds; recycling changes only what is
// allocated, since Reset clears an L2 of unchanged geometry in place.
type Machine struct {
	cfg     Config
	root    *rng.Source
	hier    *hierarchy.Hierarchy
	threads []*Thread
	// below holds the store of each level below the L1 (below[k] backs
	// cfg.Levels[k]), for Reset to clear in place.
	below []*cache.SetAssoc

	// Prefetcher, if set, observes L1 demand traffic and injects
	// prefetch fills (Section VII's tagged-prefetcher comparison).
	Prefetcher prefetch.Prefetcher
}

// New builds a machine from cfg (zero fields take Table IV defaults). It is
// Reset of a zero machine, so New and Reset share one construction path,
// and it panics on a configuration Validate rejects. It never takes a
// machine from the pool: code that builds one machine per process calls
// New, and code that builds many calls Acquire and Release.
func New(cfg Config) *Machine {
	m := new(Machine)
	m.Reset(cfg)
	return m
}

// pool holds released machines for Acquire. A sync.Pool rather than a
// free list: the machines pass between the goroutines of parexp's engines
// in no fixed order, and the garbage collector may drop idle ones, so a
// pool never pins memory for the life of the process.
var pool sync.Pool

// Acquire returns a machine Reset to cfg: one that Release returned to the
// pool when there is one, and New(cfg) otherwise. Which machine it returns
// cannot change a simulated result, because Reset leaves exactly the
// machine New builds; it changes what is allocated, since a pooled machine
// clears a lower level of unchanged geometry in place. A caller that never
// calls Release still gets a correct machine, which the garbage collector
// frees. It panics on a configuration Validate rejects.
func Acquire(cfg Config) *Machine {
	m, ok := pool.Get().(*Machine)
	if !ok {
		return New(cfg)
	}
	m.Reset(cfg)
	return m
}

// Release returns m to the pool for a later Acquire. It keeps only what
// Reset reuses, the stores of the levels below the L1 and their level
// configs, and drops the L1, the hierarchy, the threads and the
// prefetcher, so a pooled machine holds nothing but lower-level arrays.
// Neither m nor a thread made on it may be used after Release: another
// Acquire may hand m out again. Releasing m twice panics.
func (m *Machine) Release() {
	if m.hier == nil {
		panic("sim: Release of a machine that is not in use")
	}
	*m = Machine{cfg: Config{Levels: m.cfg.Levels}, below: m.below}
	pool.Put(m)
}

// Reset rebuilds m in place as exactly the machine New(cfg) returns: a
// fresh root stream split in the same order, a fresh L1, hierarchy, fill
// engines and counters, and no threads or prefetcher. The one thing it
// reuses is storage: a level below the L1 whose geometry is unchanged is
// cleared in place (cache.SetAssoc.Reset) rather than reallocated, so a
// unit that resets one machine per configuration allocates its L2 once,
// and Acquire reuses the L2 of a machine another unit released. Threads
// made before Reset must not be used after it: they still point at the
// cleared stores. It panics, leaving m as it was, on a configuration
// Validate rejects.
func (m *Machine) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed)
	levels, below := buildLevels(cfg, root, m.cfg.Levels, m.below)
	*m = Machine{
		cfg:   cfg,
		root:  root,
		hier:  hierarchy.New(MemLat, levels...),
		below: below,
	}
}

// Hierarchy returns the machine's cache hierarchy, for per-level stats and
// direct level inspection.
func (m *Machine) Hierarchy() *hierarchy.Hierarchy { return m.hier }

// L1 returns the L1 data cache.
func (m *Machine) L1() cache.Cache { return m.hier.Level(0).Cache }

// L2Accesses returns the number of requests that reached the L2.
func (m *Machine) L2Accesses() uint64 { return m.hier.Level(1).Stats().Accesses }

// MemAccesses returns the number of fetch requests that reached memory.
func (m *Machine) MemAccesses() uint64 { return m.hier.MemAccesses() }

// fillL1 installs a line in the L1 on behalf of a thread; the hierarchy
// cascades any dirty victim into the levels below (allocating on a
// write-back miss). Write-back traffic does not stall the processor (write
// buffers), but it is counted.
func (m *Machine) fillL1(line mem.Line, opts cache.FillOpts) {
	m.hier.Fill(0, line, opts)
}

// fetchBelow services an L1 miss (or background fill) through the levels
// below the L1, applying each level's own fill policy, and returns the
// additional latency beyond the L1 hit path.
func (m *Machine) fetchBelow(line mem.Line, write bool) uint64 {
	return m.hier.Fetch(1, line, write)
}

// NewThread creates a hardware thread with the given fill policy. For
// ModePreload the thread's SecretRegions are preloaded and locked in the
// PLcache immediately (and the preload traffic is charged to the thread as
// start-up cycles). It panics on a thread config ValidateThread rejects.
func (m *Machine) NewThread(tc ThreadConfig) *Thread {
	if err := m.cfg.ValidateThread(tc); err != nil {
		panic(err)
	}
	t := &Thread{
		machine:  m,
		cfg:      tc,
		engine:   nil,
		mshr:     make([]mshrEntry, m.cfg.MissQueue),
		earliest: math.MaxInt64,
	}
	t.engine = core.NewEngine(m.L1(), m.root.Split(uint64(100+len(m.threads))))
	t.engine.SetOwner(tc.Owner)
	t.engine.SetDropOnHit(!tc.KeepRedundantFills)
	if dc, ok := m.L1().(cache.DomainAware); ok {
		t.domainL1 = dc
	}
	if tc.Mode == ModeRandomFill {
		t.engine.SetRR(tc.Window.A, tc.Window.B)
	}
	if tc.Mode == ModePreload {
		for _, r := range tc.SecretRegions {
			for _, l := range r.Lines() {
				// Preload traffic goes through the L2 like any
				// other fill and costs the thread time up front.
				t.cycle += ticks(m.fetchBelow(l, false))
				m.L1().Fill(l, cache.FillOpts{Lock: true, Owner: tc.Owner})
			}
		}
	}
	m.threads = append(m.threads, t)
	return t
}

// RunTrace is the single-thread convenience: create a thread configured by
// tc, replay the compiled trace to completion, drain it, and return its
// result. The machine never compiles: a caller compiles each trace once
// (trace.Compile) and may replay it on any number of machines, since replay
// only reads it. Replay is batched, so every RunTrace golden in the test
// suite doubles as an identity pin of batched vs. per-access replay
// (ReplayBatch documents why the two are the same computation).
func (m *Machine) RunTrace(tc ThreadConfig, ct *trace.Compiled) Result {
	return m.NewThread(tc).RunCompiled(ct)
}

// RunTraceSteady measures steady-state behaviour: the compiled trace runs
// once to warm the caches, then runs again; the returned result covers only
// the measured second pass.
func (m *Machine) RunTraceSteady(tc ThreadConfig, ct *trace.Compiled) Result {
	t := m.NewThread(tc)
	warm := t.RunCompiled(ct)
	return t.RunCompiled(ct).Sub(warm)
}

// smtPass interleaves the two threads until the main thread has executed
// its whole compiled trace once, and returns the background thread's resume
// index for the next pass. Whichever thread is behind in simulated time runs,
// so the interleaving of shared-cache updates tracks the two threads'
// relative progress: the background thread runs its loop while it is not
// ahead of the main thread (looping over its trace from index bi), then the
// main thread runs while it is behind the background thread. Each switch is
// a cycle bound on the other thread's loop, which replays exactly the order
// of stepping the two threads one access at a time.
func (m *Machine) smtPass(main, bg *Thread, mainCT, bgCT *trace.Compiled, bi int) int {
	sa := main.hitProbe() // the threads share the L1
	for mi := 0; mi < mainCT.Len(); {
		bound := int64(math.MaxInt64)
		if bgCT.Len() > 0 {
			// bg.cycle <= main.cycle, as a strict bound on the integer
			// clock.
			bgBound := main.cycle + 1
			for {
				if bi = bg.replay(bgCT, bi, bgBound, sa); bi < bgCT.Len() {
					break
				}
				bi = 0 // the background thread loops over its trace
			}
			bound = bg.cycle
		}
		mi = main.replay(mainCT, mi, bound, sa)
	}
	main.Drain()
	return bi
}

// RunSMTCompiled co-runs two threads over compiled traces: the main thread
// executes its trace once; the background thread loops over its trace until
// the main thread finishes (the paper's Figure 8 setup, where AES enc+dec
// runs continuously next to a SPEC workload). It returns the main thread's
// result.
func (m *Machine) RunSMTCompiled(mainCfg ThreadConfig, mainCT *trace.Compiled, bgCfg ThreadConfig, bgCT *trace.Compiled) Result {
	main := m.NewThread(mainCfg)
	bg := m.NewThread(bgCfg)
	m.smtPass(main, bg, mainCT, bgCT, 0)
	return main.Result()
}

// RunSMTSteadyCompiled is RunSMTCompiled with a warm-up pass: the main
// trace runs once unmeasured (the background thread co-running throughout),
// then the measured pass runs; the result covers only the measured pass.
// The background thread resumes the measured pass where the warm-up pass
// left its trace.
func (m *Machine) RunSMTSteadyCompiled(mainCfg ThreadConfig, mainCT *trace.Compiled, bgCfg ThreadConfig, bgCT *trace.Compiled) Result {
	main := m.NewThread(mainCfg)
	bg := m.NewThread(bgCfg)
	bi := m.smtPass(main, bg, mainCT, bgCT, 0)
	warm := main.Result()
	m.smtPass(main, bg, mainCT, bgCT, bi)
	return main.Result().Sub(warm)
}
