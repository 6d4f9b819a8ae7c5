package experiments

import (
	"context"
	"fmt"
	"sync"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/trace"
)

// constantTimePlan compares the constant-execution-time defenses the paper
// discusses in Sections III.B, VI and VIII against random fill, on the AES
// workload: disable-cache, informing loads (Kong et al.), PLcache+preload,
// and the random fill cache. The paper's qualitative ranking — disable
// cache worst, informing loads below PLcache+preload, random fill best — is
// the reproduction target. A unit is one run; the first is the demand-fetch
// baseline.
func constantTimePlan(sc Scale) unitPlan[sim.Result] {
	victim := lazyVictim(sc)
	runs := []struct {
		kind sim.CacheKind
		tc   sim.ThreadConfig
	}{
		{sim.KindSA, sim.ThreadConfig{}},
		{sim.KindSA, sim.ThreadConfig{Mode: sim.ModeDisableSecret}},
		{sim.KindSA, sim.ThreadConfig{Mode: sim.ModeInforming, SecretRegions: encTables()}},
		{sim.KindPLcache, sim.ThreadConfig{Mode: sim.ModePreload, SecretRegions: encTables(), Owner: 1}},
		{sim.KindSA, sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15}}},
	}
	return unitPlan[sim.Result]{
		n: len(runs),
		run: func(_ context.Context, i int) (sim.Result, error) {
			// An 8 KB 2-way L1: the tables do not fit comfortably, so
			// eviction pressure is real and the preloading strategies' costs
			// show (a big L1 hides them — informing loads traps once and
			// never again).
			cfg := sim.DefaultConfig()
			cfg.L1 = cache.Geometry{SizeBytes: 8 * 1024, Ways: 2}
			cfg.L1Kind = runs[i].kind
			cfg.Seed = sc.Seed
			m := sim.Acquire(cfg)
			defer m.Release()
			return m.RunTrace(runs[i].tc, victim()), nil
		},
		render: func(res []sim.Result) *Table {
			t := &Table{
				Title: "Constant-time defenses vs random fill (AES-CBC)",
				Headers: []string{"defense", "IPC vs baseline", "handler traps",
					"notes"},
			}
			baseline, disable, informing, preload, rf := res[0], res[1], res[2], res[3], res[4]
			t.AddRow("disable cache", pct(disable.IPC()/baseline.IPC()), "-",
				"every secret access goes to L2")
			t.AddRow("informing loads", pct(informing.IPC()/baseline.IPC()),
				fmt.Sprintf("%d", informing.InformingTraps),
				"handler reloads all tables per secret miss")
			t.AddRow("PLcache+preload", pct(preload.IPC()/baseline.IPC()), "-",
				"tables locked once, at thread start")
			t.AddRow("random fill [-16,+15]", pct(rf.IPC()/baseline.IPC()), "-",
				"no preloading, no locking")
			t.AddNote("paper: informing loads is slower than PLcache+preload (more frequent handler invocation) and both trail random fill; an attacker who evicts the tables repeatedly turns the informing-loads handler into a DoS amplifier (Section VIII)")
			return t
		},
	}
}

// informingDoSPlan demonstrates the Section VIII abuse case: an attacker
// thread that continuously evicts the victim's tables multiplies the
// informing-loads victim's handler invocations, while the random-fill
// victim is unaffected by design. A unit is one victim defense's solo and
// co-run results.
func informingDoSPlan(sc Scale) unitPlan[[2]sim.Result] {
	victim := lazyVictim(sc)
	// The attacker streams over a large buffer, evicting the victim's
	// tables from the shared L1 as fast as it can.
	attacker := sync.OnceValue(func() *trace.Compiled { return streamingEvictTrace(sc) })
	defenses := []struct {
		name string
		tc   sim.ThreadConfig
	}{
		{"informing loads", sim.ThreadConfig{Mode: sim.ModeInforming, SecretRegions: encTables()}},
		{"random fill [-16,+15]", sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15}}},
	}
	return unitPlan[[2]sim.Result]{
		n: len(defenses),
		run: func(_ context.Context, i int) ([2]sim.Result, error) {
			// A 16 KB DM shared L1: the attacker's streaming sweep actually
			// displaces the victim's tables.
			cfg := sim.DefaultConfig()
			cfg.L1 = cache.Geometry{SizeBytes: 16 * 1024, Ways: 1}
			cfg.Seed = sc.Seed
			tc := defenses[i].tc
			m := sim.Acquire(cfg)
			defer m.Release()
			solo := m.RunTrace(tc, victim())
			m.Reset(cfg)
			co := m.RunSMTCompiled(tc, victim(), sim.ThreadConfig{Owner: 1}, attacker())
			return [2]sim.Result{solo, co}, nil
		},
		render: func(results [][2]sim.Result) *Table {
			t := &Table{
				Title:   "Section VIII: informing-loads DoS amplification under an evicting co-runner",
				Headers: []string{"victim defense", "solo IPC", "co-run IPC", "slowdown", "traps"},
			}
			for i, r := range results {
				solo, co := r[0], r[1]
				t.AddRow(defenses[i].name,
					fmt.Sprintf("%.3f", solo.IPC()),
					fmt.Sprintf("%.3f", co.IPC()),
					pct(co.IPC()/solo.IPC()),
					fmt.Sprintf("%d", co.InformingTraps))
			}
			t.AddNote("the informing-loads victim pays a full table reload per attacker-induced miss; the random fill victim has nothing for the attacker to abuse")
			return t
		},
	}
}

// streamingEvictTrace builds the DoS attacker's trace, packed: a fast
// streaming sweep large enough to thrash the shared L1.
func streamingEvictTrace(sc Scale) *trace.Compiled {
	const sweepLines = 4096 // 256 KB, 8x the L1
	n := sc.SpecAccesses / 2
	ct := new(trace.Compiled)
	out := trace.Pack(ct)
	out.Grow(n)
	for i := range n {
		out.Add(mem.Access{Addr: 0x4000000 + mem.Addr((i%sweepLines)*mem.LineSize)})
	}
	return ct
}
