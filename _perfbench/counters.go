package main

import (
	"context"
	"fmt"

	"randfill/internal/aes"
	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/checkpoint"
	"randfill/internal/experiments"
	"randfill/internal/infotheory"
	"randfill/internal/mem"
	"randfill/internal/newcache"
	"randfill/internal/parexp"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// The counter pass drives each workload's units through the layers' public
// entry points, with a span around each call, and reads the layers' public
// getters. It mirrors the experiments' unit code (which is unexported), and
// checks every unit it recomputes against the row the experiment rendered,
// so the mirror cannot drift from the experiment unnoticed.

// counts are the layer counters one counter pass read.
type counts struct {
	attackSamples, infoTrials, aesBlocks uint64
	genAccesses, traceWords              uint64
	batchAccesses, stepAccesses          uint64
	l2Accesses, l2Misses, memAccesses    uint64
	windowDraws, fillsIssued             uint64
	l1Accesses, l1Misses, l1Evictions    uint64
}

// addMachine reads a finished machine's counters. stepped says whether its
// threads replayed through the scalar per-access path.
func (c *counts) addMachine(m *sim.Machine, stepped bool, threads ...*sim.Thread) {
	for _, t := range threads {
		r := t.Result()
		n := r.Hits + r.Misses + r.Merged + r.SecretBypass
		if stepped {
			c.stepAccesses += n
		} else {
			c.batchAccesses += n
		}
		st := t.Engine().Stats()
		c.windowDraws += st.RandomIssued + st.RandomDropped + st.RandomClamped
		c.fillsIssued += st.RandomIssued
	}
	l2 := m.Hierarchy().Level(1).Stats()
	c.l2Accesses += l2.Accesses
	c.l2Misses += l2.Misses
	c.memAccesses += m.MemAccesses()
	l1 := m.L1().Stats()
	c.l1Accesses += l1.Accesses()
	c.l1Misses += l1.Misses
	c.l1Evictions += l1.Evictions
}

// batchReplay reports whether Thread.RunCompiled on m replays batched:
// Thread.ReplayBatch batches only over a plain SetAssoc L1 with no
// prefetcher, and steps every access otherwise.
func batchReplay(m *sim.Machine) bool {
	_, ok := m.L1().(*cache.SetAssoc)
	return ok && m.Prefetcher == nil
}

// t4Region is the AES final-round table T4 under the default layout, the
// security-critical region of Table III and the policy matrix.
var t4Region = aes.DefaultLayout().TableRegion(4)

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// checkCell compares a recomputed cell with the experiment's rendering.
func checkCell(t *experiments.Table, row, col int, got string) error {
	if want := t.Rows[row][col]; got != want {
		return fmt.Errorf("counter pass drifted from %q: row %d col %d is %q, recomputed %q",
			t.Title, row, col, want, got)
	}
	return nil
}

// countPass runs the workload's counter pass; want are the tables the
// traced pass rendered at the same Scale.
func countPass(ctx context.Context, w workload, rec *recorder, sc experiments.Scale, want []*experiments.Table, store *checkpoint.Store) (counts, error) {
	var c counts
	var err error
	switch w.name {
	case "security":
		err = countSecurity(ctx, rec, sc, &c, want[0])
	case "spec":
		err = countSpec(rec, sc, &c, want[0], want[1])
	case "matrix":
		err = countMatrix(rec, sc, &c, want[0], store)
	default:
		err = fmt.Errorf("no counter pass for workload %s", w.name)
	}
	return c, err
}

// probeSamples is how many one-block encryptions the security counter pass
// replays per cell to count the per-sample layers.
const probeSamples = 64

// countSecurity mirrors Table III's cells: a sharded Monte Carlo P1-P2
// estimate and a sharded measurements-to-success search, then a probe of
// the per-sample replay the search repeats.
func countSecurity(ctx context.Context, rec *recorder, sc experiments.Scale, c *counts, want *experiments.Table) error {
	eng := parexp.New(sc.Workers)
	geom := cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}
	bases := []struct {
		kind sim.CacheKind
		mk   func(src *rng.Source) cache.Cache
	}{
		{sim.KindSA, func(*rng.Source) cache.Cache { return cache.NewSetAssoc(geom, cache.LRU{}) }},
		{sim.KindNewcache, func(src *rng.Source) cache.Cache { return newcache.New(32*1024, 4, src) }},
	}
	sizes := []int{1, 2, 4, 8, 16, 32}
	for bi, b := range bases {
		for si, size := range sizes {
			u := rec.begin(0, "experiments.unit")
			var mc infotheory.P1P2Result
			var err error
			rec.do(u, "infotheory.MonteCarloP1P2Sharded", func() {
				mc, err = infotheory.MonteCarloP1P2ShardedCtx(ctx, eng, infotheory.P1P2Config{
					NewCache: b.mk,
					Window:   rng.Symmetric(size),
					Trials:   sc.MonteCarloTrials,
					Region:   t4Region,
					Seed:     sc.Seed,
				}, parexp.Shards)
			})
			if err != nil {
				return err
			}
			cfg := attacks.CollisionConfig{Sim: sim.DefaultConfig(), Seed: sc.Seed}
			cfg.Sim.MissQueue = 2
			cfg.Sim.L1Kind = b.kind
			if size > 1 {
				cfg.Victim = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Symmetric(size)}
			}
			var res attacks.SearchResult
			rec.do(u, "attacks.MeasurementsToSuccessSharded", func() {
				res, err = attacks.MeasurementsToSuccessShardedCtx(ctx, eng, cfg, sc.AttackBatch, sc.AttackMaxSamples, parexp.Shards)
			})
			if err != nil {
				return err
			}
			// One block encryption per Monte Carlo trial and per measurement.
			c.infoTrials += uint64(sc.MonteCarloTrials)
			c.attackSamples += res.Measurements
			c.aesBlocks += uint64(sc.MonteCarloTrials) + res.Measurements
			if err := probeCollision(rec, u, c, cfg); err != nil {
				return err
			}
			rec.end(u)

			row := bi*len(sizes) + si
			meas := "-"
			if res.Success {
				meas = fmt.Sprint(res.Measurements)
			}
			if err := checkCell(want, row, 2, fmt.Sprintf("%.3f", mc.Diff())); err != nil {
				return err
			}
			if err := checkCell(want, row, 3, meas); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeCollision replays probeSamples of the collision attack's per-sample
// work through the calls attacks.Collision.Collect makes: flush the L1,
// trace one block encryption, compile the trace, replay it.
func probeCollision(rec *recorder, parent int, c *counts, cfg attacks.CollisionConfig) error {
	src := rng.New(cfg.Seed ^ 0x9b0be)
	key := make([]byte, 16)
	src.Bytes(key)
	cipher, err := aes.New(key)
	if err != nil {
		return err
	}
	tracer := &aes.Tracer{Cipher: cipher, Layout: aes.DefaultLayout()}
	var m *sim.Machine
	var th *sim.Thread
	rec.do(parent, "sim.New", func() {
		m = sim.New(cfg.Sim)
		th = m.NewThread(cfg.Victim)
	})
	var buf mem.Trace
	var ct trace.Compiled
	var pt [16]byte
	for s := 0; s < probeSamples; s++ {
		src.Bytes(pt[:])
		m.L1().Flush()
		rec.do(parent, "aes.Tracer", func() { _, buf = tracer.EncryptBlockInto(buf[:0], pt[:], 0) })
		rec.do(parent, "trace.Compile", func() { trace.CompileInto(&ct, buf) })
		rec.do(parent, "sim.RunCompiled", func() { th.RunCompiled(&ct) })
		c.aesBlocks++
		c.traceWords += uint64(ct.Len())
	}
	c.addMachine(m, !batchReplay(m), th)
	return nil
}

// figure10Windows are Figure 10's fill windows, forward then bidirectional.
var figure10Windows = []rng.Window{
	{A: 0, B: 0},
	{A: 0, B: 1}, {A: 0, B: 3}, {A: 0, B: 7}, {A: 0, B: 15}, {A: 0, B: 31},
	{A: 1, B: 0}, {A: 2, B: 1}, {A: 4, B: 3}, {A: 8, B: 7}, {A: 16, B: 15},
}

// countSpec mirrors Figure 10's per-benchmark window sweeps (steady-state,
// batch-compiled) and Figure 8's per-(geometry, benchmark) SMT co-runs next
// to AES (scalar Step).
func countSpec(rec *recorder, sc experiments.Scale, c *counts, fig10, fig8 *experiments.Table) error {
	benches := workloads.All()
	for bi, bench := range benches {
		u := rec.begin(0, "experiments.unit")
		var tr mem.Trace
		rec.do(u, "workloads.Generator.Gen", func() { tr = bench.Gen(sc.SpecAccesses, sc.Seed) })
		c.genAccesses += uint64(len(tr))
		var ct *trace.Compiled
		rec.do(u, "trace.Compile", func() { ct = trace.Compile(tr) })
		c.traceWords += uint64(ct.Len())
		var baseIPC float64
		for wi, win := range figure10Windows {
			cfg := sim.DefaultConfig()
			cfg.Seed = sc.Seed
			tc := sim.ThreadConfig{}
			if !win.Zero() {
				tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: win}
			}
			var m *sim.Machine
			var th *sim.Thread
			rec.do(u, "sim.New", func() {
				m = sim.New(cfg)
				th = m.NewThread(tc)
			})
			var res sim.Result
			rec.do(u, "sim.RunCompiled", func() {
				warm := th.RunCompiled(ct)
				res = th.RunCompiled(ct).Sub(warm)
			})
			c.addMachine(m, !batchReplay(m), th)
			if wi == 0 {
				baseIPC = res.IPC()
			}
			if err := checkCell(fig10, 2*bi, 2+wi, fmt.Sprintf("%.1f", res.MPKI())); err != nil {
				return err
			}
			if err := checkCell(fig10, 2*bi+1, 2+wi, pct(res.IPC()/baseIPC)); err != nil {
				return err
			}
		}
		rec.end(u)
	}

	var crypto mem.Trace
	var err error
	rec.do(0, "aes.Tracer", func() { crypto, err = aesEncDecTrace(sc) })
	if err != nil {
		return err
	}
	c.aesBlocks += 2 * uint64(sc.CBCBytes/aes.BlockSize)
	win := rng.Symmetric(32)
	configs := []struct {
		kind sim.CacheKind
		tc   sim.ThreadConfig
	}{
		{sim.KindSA, sim.ThreadConfig{Owner: 1}},
		{sim.KindPLcache, sim.ThreadConfig{Mode: sim.ModePreload, SecretRegions: aes.DefaultLayout().AllTableRegions(), Owner: 1}},
		{sim.KindSA, sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: win, Owner: 1}},
		{sim.KindNewcache, sim.ThreadConfig{Owner: 1}},
		{sim.KindNewcache, sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: win, Owner: 1}},
	}
	geoms := []cache.Geometry{{SizeBytes: 16 * 1024, Ways: 1}, {SizeBytes: 32 * 1024, Ways: 4}}
	for gi, g := range geoms {
		for bi, bench := range benches {
			u := rec.begin(0, "experiments.unit")
			var ipc [5]float64
			for ci, cf := range configs {
				var tr mem.Trace
				rec.do(u, "workloads.Generator.Gen", func() { tr = bench.Gen(sc.SpecAccesses, sc.Seed) })
				c.genAccesses += uint64(len(tr))
				cfg := sim.DefaultConfig()
				cfg.L1 = g
				cfg.L1Kind = cf.kind
				cfg.Seed = sc.Seed
				var m *sim.Machine
				var main, bg *sim.Thread
				rec.do(u, "sim.New", func() {
					m = sim.New(cfg)
					main = m.NewThread(sim.ThreadConfig{Owner: 0})
					bg = m.NewThread(cf.tc)
				})
				var res sim.Result
				rec.do(u, "sim.Step", func() { res = smtSteady(main, bg, tr, crypto) })
				c.addMachine(m, true, main, bg)
				ipc[ci] = res.IPC()
			}
			row := gi*(len(benches)+1) + bi
			for ci := 1; ci < len(ipc); ci++ {
				if err := checkCell(fig8, row, 2+ci, pct(ipc[ci]/ipc[0])); err != nil {
					return err
				}
			}
			rec.end(u)
		}
	}
	return nil
}

// smtSteady is Machine.RunSMTSteady on already created threads: a warm-up
// pass of the main trace with the background thread looping alongside,
// then the measured pass.
func smtSteady(main, bg *sim.Thread, mainTrace, bgTrace mem.Trace) sim.Result {
	bi := smtPass(main, bg, mainTrace, bgTrace, 0)
	warm := main.Result()
	smtPass(main, bg, mainTrace, bgTrace, bi)
	return main.Result().Sub(warm)
}

// smtPass steps whichever thread is behind in simulated time until the
// main thread has run its trace once; the background thread loops.
func smtPass(main, bg *sim.Thread, mainTrace, bgTrace mem.Trace, bi int) int {
	for mi := 0; mi < len(mainTrace); {
		if bg.Cycle() <= main.Cycle() && len(bgTrace) > 0 {
			bg.Step(bgTrace[bi])
			if bi++; bi == len(bgTrace) {
				bi = 0
			}
			continue
		}
		main.Step(mainTrace[mi])
		mi++
	}
	main.Drain()
	return bi
}

// aesInputs returns a tracer and CBC inputs drawn from seed, as the
// experiments' AES workloads draw them.
func aesInputs(seed uint64, n int) (*aes.Tracer, []byte, []byte, error) {
	src := rng.New(seed)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, n)
	src.Bytes(pt)
	cipher, err := aes.New(key[:])
	if err != nil {
		return nil, nil, nil, err
	}
	return &aes.Tracer{Cipher: cipher, Layout: aes.DefaultLayout()}, pt, iv[:], nil
}

// aesEncDecTrace is Figure 8's crypto thread: AES-CBC encryption then
// decryption of sc.CBCBytes.
func aesEncDecTrace(sc experiments.Scale) (mem.Trace, error) {
	tracer, pt, iv, err := aesInputs(sc.Seed^0xdec, sc.CBCBytes)
	if err != nil {
		return nil, err
	}
	ct, enc, err := tracer.EncryptCBC(pt, iv)
	if err != nil {
		return nil, err
	}
	_, dec, err := tracer.DecryptCBC(ct, iv)
	if err != nil {
		return nil, err
	}
	return append(enc, dec...), nil
}

// aesCBCTrace is the policy matrix's performance input: AES-CBC encryption
// of sc.CBCBytes.
func aesCBCTrace(sc experiments.Scale) (mem.Trace, error) {
	tracer, pt, iv, err := aesInputs(sc.Seed^0xcbc, sc.CBCBytes)
	if err != nil {
		return nil, err
	}
	_, tr, err := tracer.EncryptCBC(pt, iv)
	return tr, err
}

// policyMatrixVictimSizes is the policy matrix's occupancy sweep.
var policyMatrixVictimSizes = []int{32, 96}

// countMatrix mirrors the policy matrix's (policy, design) cells — reuse
// and occupancy probes plus an AES-CBC replay under the same policy — then
// reads every unit back from the traced pass's checkpoint store.
func countMatrix(rec *recorder, sc experiments.Scale, c *counts, want *experiments.Table, store *checkpoint.Store) error {
	policies := cache.PolicyNames()
	designs := securecache.All()
	for i := 0; i < len(policies)*len(designs); i++ {
		pol, d := policies[i/len(designs)], designs[i%len(designs)]
		seed := rng.New(sc.Seed ^ 0x9011c).SplitSeed(uint64(i + 1))
		mk := func(g cache.Geometry) func(src *rng.Source) securecache.SecureCache {
			return func(src *rng.Source) securecache.SecureCache {
				return d.New(securecache.Config{Geom: g, Policy: pol}, src)
			}
		}
		u := rec.begin(0, "experiments.unit")
		var reuse attacks.FlushReloadResult
		rec.do(u, "attacks.Reuse", func() {
			reuse = attacks.Reuse(attacks.ReuseConfig{
				NewCache: mk(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}),
				Region:   t4Region,
				Pad:      16,
				Trials:   sc.MonteCarloTrials / 40,
				Seed:     seed,
			})
		})
		var occ attacks.OccupancyResult
		rec.do(u, "attacks.Occupancy", func() {
			occ = attacks.Occupancy(attacks.OccupancyConfig{
				NewCache:    mk(cache.Geometry{SizeBytes: 8 * 1024, Ways: 4}),
				Lines:       96,
				VictimSizes: policyMatrixVictimSizes,
				Trials:      sc.MonteCarloTrials / 200,
				Seed:        seed,
			})
		})
		c.attackSamples += uint64(reuse.Trials + occ.Trials)

		var tr mem.Trace
		var err error
		rec.do(u, "aes.Tracer", func() { tr, err = aesCBCTrace(sc) })
		if err != nil {
			return err
		}
		c.aesBlocks += uint64(sc.CBCBytes / aes.BlockSize)
		var ct *trace.Compiled
		rec.do(u, "trace.Compile", func() { ct = trace.Compile(tr) })
		c.traceWords += uint64(ct.Len())
		cfg := sim.DefaultConfig()
		cfg.Seed = sc.Seed
		cfg.L1Policy = pol
		tc := sim.ThreadConfig{}
		if d.Name == "randfill" {
			cfg.L1Kind = sim.KindSA
			tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Symmetric(32)}
		} else {
			cfg.L1Kind = sim.CacheKind(d.Name)
		}
		var m *sim.Machine
		var th *sim.Thread
		rec.do(u, "sim.New", func() {
			m = sim.New(cfg)
			th = m.NewThread(tc)
		})
		var res sim.Result
		rec.do(u, "sim.RunCompiled", func() { res = th.RunCompiled(ct) })
		c.addMachine(m, !batchReplay(m), th)
		rec.end(u)

		cells := []string{
			fmt.Sprintf("%.3f", reuse.Accuracy), fmt.Sprintf("%.3f", reuse.MutualInfo),
			fmt.Sprintf("%.3f", occ.Accuracy), fmt.Sprintf("%.3f", occ.MutualInfo),
			fmt.Sprintf("%.3f", res.IPC()), fmt.Sprintf("%.2f", res.MPKI()),
		}
		for k, cell := range cells {
			if err := checkCell(want, i, 2+k, cell); err != nil {
				return err
			}
		}
	}

	plan, ok := experiments.PlanFor("PolicyMatrix", sc)
	if !ok {
		return fmt.Errorf("PolicyMatrix has no unit plan")
	}
	for i := 0; i < plan.Units; i++ {
		var found bool
		var err error
		rec.do(0, "checkpoint.Store.Get", func() { _, found, err = store.Get(plan.Meta(i)) })
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("checkpoint of PolicyMatrix unit %d is missing", i)
		}
	}
	return nil
}
