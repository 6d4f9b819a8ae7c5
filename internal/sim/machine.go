package sim

import (
	"math"

	"randfill/internal/cache"
	"randfill/internal/hierarchy"
	"randfill/internal/mem"
	"randfill/internal/plcache"
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
type Machine struct {
	cfg     Config
	root    *rng.Source
	hier    *hierarchy.Hierarchy
	threads []*Thread

	// Prefetcher, if set, observes L1 demand traffic and injects
	// prefetch fills (Section VII's tagged-prefetcher comparison).
	Prefetcher prefetch.Prefetcher

	// ctScratch is the machine's reusable trace-compilation buffer, so
	// repeated RunTrace calls (Table III sweeps replay the same few traces
	// against many configurations) recompile without allocating.
	ctScratch trace.Compiled
}

// New builds a machine from cfg (zero fields take Table IV defaults).
func New(cfg Config) *Machine {
	cfg = cfg.withDefaults()
	root := rng.New(cfg.Seed)
	return &Machine{
		cfg:  cfg,
		root: root,
		hier: hierarchy.New(cfg.MemLat, buildLevels(cfg, root)...),
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
// start-up cycles).
func (m *Machine) NewThread(tc ThreadConfig) *Thread {
	t := &Thread{
		machine:    m,
		cfg:        tc,
		engine:     nil,
		mshr:       make([]mshrEntry, m.cfg.MissQueue),
		earliest:   math.Inf(1),
		issueWidth: float64(m.cfg.IssueWidth),
		hitLat:     float64(m.cfg.L1HitLat),
	}
	t.engine = coreEngine(m.L1(), m.root.Split(uint64(100+len(m.threads))))
	t.engine.SetOwner(tc.Owner)
	t.engine.SetDropOnHit(!tc.KeepRedundantFills)
	if dc, ok := m.L1().(domainCache); ok {
		t.domainL1 = dc
	}
	if tc.Mode == ModeRandomFill {
		t.engine.SetRR(tc.Window.A, tc.Window.B)
	}
	if tc.Mode == ModePreload {
		pl, ok := m.L1().(*plcache.PLcache)
		if !ok {
			panic("sim: ModePreload requires L1Kind == KindPLcache")
		}
		for _, r := range tc.SecretRegions {
			for _, l := range r.Lines() {
				// Preload traffic goes through the L2 like any
				// other fill and costs the thread time up front.
				t.cycle += float64(m.fetchBelow(l, false))
				pl.Fill(l, cache.FillOpts{Lock: true, Owner: tc.Owner})
			}
		}
	}
	m.threads = append(m.threads, t)
	return t
}

// RunTrace is the single-thread convenience: create a demand-fetch or
// configured thread, run the trace to completion, and return its result.
// The trace is compiled once and replayed batched; every RunTrace golden in
// the test suite therefore doubles as an identity pin of batched vs.
// per-access replay (ReplayBatch documents why the two are the same
// computation).
func (m *Machine) RunTrace(tc ThreadConfig, tr mem.Trace) Result {
	t := m.NewThread(tc)
	t.ReplayBatch(trace.CompileInto(&m.ctScratch, tr))
	t.Drain()
	return t.Result()
}

// RunTraceSteady measures steady-state behaviour: the trace runs once to
// warm the caches, then runs again; the returned result covers only the
// measured second pass.
func (m *Machine) RunTraceSteady(tc ThreadConfig, tr mem.Trace) Result {
	t := m.NewThread(tc)
	ct := trace.CompileInto(&m.ctScratch, tr)
	t.RunCompiled(ct)
	warm := t.Result()
	t.RunCompiled(ct)
	return t.Result().Sub(warm)
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
		bound := math.Inf(1)
		if bgCT.Len() > 0 {
			// bg.cycle <= main.cycle, as a strict bound: no float lies
			// strictly between main.cycle and its successor.
			bgBound := math.Nextafter(main.cycle, math.Inf(1))
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

// RunSMT co-runs two threads: the main thread executes its trace once; the
// background thread loops over its trace until the main thread finishes
// (the paper's Figure 8 setup, where AES enc+dec runs continuously next to
// a SPEC workload). It returns the main thread's result.
func (m *Machine) RunSMT(mainCfg ThreadConfig, mainTrace mem.Trace, bgCfg ThreadConfig, bgTrace mem.Trace) Result {
	return m.RunSMTCompiled(mainCfg, trace.Compile(mainTrace), bgCfg, trace.Compile(bgTrace))
}

// RunSMTCompiled is RunSMT over precompiled traces, which callers replaying
// one trace against many configurations compile once and share.
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
