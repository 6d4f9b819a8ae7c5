// Package randfill's top-level benchmarks regenerate the experiments that
// no other benchmark surface times, at a trimmed QuickScale, plus
// micro-benchmarks of the substrates. Table III and Figures 8 and 10 are
// timed end to end by the _perfbench workloads (security, spec) and the
// collision and SMT loops by cmd/rfbench's kernels, so they have no
// benchmark here; BenchmarkTable3CellWorkers stays as the record of how one
// Table III cell scales with workers. Run with:
//
//	go test -bench=. -benchmem
//
// Most experiment benchmarks report the headline measured value of their
// experiment as a custom metric so `go test -bench` output doubles as a
// compact reproduction record; cmd/experiments prints the full tables.
package randfill_test

import (
	"bytes"
	"context"
	"math/big"
	"strconv"
	"strings"
	"testing"

	"randfill/internal/aes"
	"randfill/internal/blowfish"
	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/experiments"
	"randfill/internal/infotheory"
	"randfill/internal/mem"
	"randfill/internal/modexp"
	"randfill/internal/newcache"
	"randfill/internal/nomo"
	"randfill/internal/rng"
	"randfill/internal/rpcache"
	"randfill/internal/sim"
	"randfill/internal/traceio"
	"randfill/internal/workloads"
)

// benchScale trims the quick scale a little further so the full -bench=.
// sweep stays in the minutes range.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.Figure2Samples = 1 << 13
	sc.AttackMaxSamples = 1 << 13
	sc.AttackBatch = 1 << 12
	sc.MonteCarloTrials = 10000
	sc.SpecAccesses = 100000
	return sc
}

func pctCell(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		b.Fatalf("bad cell %q", cell)
	}
	return v
}

// BenchmarkFigure2 regenerates the final-round collision attack timing
// characteristic chart.
func BenchmarkFigure2(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb, err := experiments.Figure2Ctx(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3CellWorkers measures one full-scale-representative Table 3
// cell (the window-2 SA cell: Monte Carlo P1-P2 plus the sharded
// measurements-to-success search) at 1, 2, 4 and 8 workers. Because the
// shard plan is fixed, every worker count computes identical results — the
// sub-benchmarks differ only in wall clock, which is the point: this is the
// recorded evidence for the engine's speedup (see DESIGN.md for numbers;
// on a single-core runner all counts tie, by design).
func BenchmarkTable3CellWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(workers), func(b *testing.B) {
			sc := experiments.QuickScale()
			sc.Workers = workers
			for i := 0; i < b.N; i++ {
				tb := experiments.Table3Cell(sc, 2)
				if len(tb.Rows) != 1 {
					b.Fatal("bad cell table")
				}
			}
		})
	}
}

// BenchmarkFigure5 regenerates the channel-capacity chart.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure5()
		// M=16 at window 2M (paper: >10x reduction).
		v, _ := strconv.ParseFloat(tb.Rows[3][2], 64)
		b.ReportMetric(v, "normcap/M16-w2M")
	}
}

// BenchmarkFigure6 regenerates the AES-CBC defense comparison.
func BenchmarkFigure6(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure6(sc)
		// Random fill on 32KB 4-way (paper: ~100%).
		b.ReportMetric(pctCell(b, tb.Rows[8][4]), "rf-ipc-%/32KB-4way")
		// Disable cache (paper: ~55%).
		b.ReportMetric(pctCell(b, tb.Rows[8][3]), "disable-ipc-%")
	}
}

// BenchmarkFigure7 regenerates the window-size sensitivity sweep.
func BenchmarkFigure7(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure7(sc)
		// 8KB Newcache at window 32 (paper: max degradation, -9%).
		b.ReportMetric(pctCell(b, tb.Rows[5][3]), "ipc-%/8KB-newcache-w32")
	}
}

// BenchmarkFigure9 regenerates the spatial-locality profiles.
func BenchmarkFigure9(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb := experiments.Figure9(sc)
		if len(tb.Rows) != 8 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTraffic regenerates the L2/memory traffic comparison.
func BenchmarkTraffic(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if tb := experiments.Traffic(sc); len(tb.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkPrefetcherComparison regenerates the Section VII tagged-
// prefetcher-vs-random-fill comparison.
func BenchmarkPrefetcherComparison(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb := experiments.PrefetchComparison(sc)
		b.ReportMetric(pctCell(b, tb.Rows[1][3]), "libquantum-rf-%")
		b.ReportMetric(pctCell(b, tb.Rows[1][2]), "libquantum-tagged-%")
	}
}

// BenchmarkDefenseMatrix regenerates the Section VIII defense-vs-attack
// comparison matrix.
func BenchmarkDefenseMatrix(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if tb := experiments.DefenseMatrix(sc); len(tb.Rows) != 7 {
			b.Fatal("bad table")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkCacheLookupHit measures the hot lookup path of the SA cache.
func BenchmarkCacheLookupHit(b *testing.B) {
	c := cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
	c.Fill(1, cache.FillOpts{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(1, false)
	}
}

// BenchmarkCacheFillEvict measures the fill+evict path under set pressure.
func BenchmarkCacheFillEvict(b *testing.B) {
	c := cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(mem.Line(i), cache.FillOpts{})
	}
}

// BenchmarkNewcacheFill measures the Newcache remap+fill path.
func BenchmarkNewcacheFill(b *testing.B) {
	c := newcache.New(32*1024, 4, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(mem.Line(i), cache.FillOpts{})
	}
}

// BenchmarkRandomFillEngine measures a full engine access (miss + window
// draw + fill decision).
func BenchmarkRandomFillEngine(b *testing.B) {
	c := cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
	e := core.NewEngine(c, rng.New(1))
	e.SetRR(16, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Access(mem.Line(i), false)
	}
}

// BenchmarkAESBlock measures the software cipher (no tracing).
func BenchmarkAESBlock(b *testing.B) {
	c, err := aes.New(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	var in, out [16]byte
	b.SetBytes(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encrypt(out[:], in[:], nil)
	}
}

// BenchmarkAESBlockTraced measures traced encryption (trace construction
// included), the attack inner loop's first half.
func BenchmarkAESBlockTraced(b *testing.B) {
	c, err := aes.New(make([]byte, 16))
	if err != nil {
		b.Fatal(err)
	}
	tr := &aes.Tracer{Cipher: c, Layout: aes.DefaultLayout()}
	var in [16]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, trace := tr.EncryptBlock(in[:], 0)
		if len(trace) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkSimStep measures the timing simulator's per-access cost on a
// mixed workload.
func BenchmarkSimStep(b *testing.B) {
	g, _ := workloads.ByName("bzip2")
	trace := g.Gen(100000, 1)
	m := sim.New(sim.Config{Seed: 1})
	th := m.NewThread(sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 4, B: 3}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Step(trace[i%len(trace)])
	}
}

// BenchmarkMonteCarloP1P2 measures the Table III Monte Carlo inner loop.
func BenchmarkMonteCarloP1P2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := infotheory.MonteCarloP1P2(infotheory.P1P2Config{
			NewCache: func(src *rng.Source) cache.Cache {
				return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
			},
			Window: rng.Symmetric(8),
			Trials: 2000,
			Region: mem.Region{Base: 0x11000, Size: 1024},
			Seed:   uint64(i + 1),
		})
		b.ReportMetric(res.Diff(), "P1-P2")
	}
}

// BenchmarkConstantTime regenerates the constant-time defense comparison.
func BenchmarkConstantTime(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb := experiments.ConstantTime(sc)
		b.ReportMetric(pctCell(b, tb.Rows[1][1]), "informing-ipc-%")
		b.ReportMetric(pctCell(b, tb.Rows[3][1]), "randomfill-ipc-%")
	}
}

// BenchmarkAdaptiveWindow regenerates the phase-adaptive window experiment
// (the paper's Section VII future work, implemented).
func BenchmarkAdaptiveWindow(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		tb := experiments.AdaptiveWindow(sc)
		b.ReportMetric(pctCell(b, tb.Rows[3][2]), "adaptive-vs-best-static-%")
	}
}

// BenchmarkEquation4 regenerates the analytical-vs-simulated timing model
// validation.
func BenchmarkEquation4(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		if tb := experiments.Equation4(sc); len(tb.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkAblations regenerates the five design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		for _, run := range []func(experiments.Scale) *experiments.Table{
			experiments.AblationWindowShape,
			experiments.AblationFillQueue,
			experiments.AblationMissQueue,
			experiments.AblationDropOnHit,
			experiments.AblationL2RandomFill,
		} {
			if tb := run(sc); len(tb.Rows) == 0 {
				b.Fatal("empty ablation table")
			}
		}
	}
}

// BenchmarkRPcacheFill measures the RPcache fill path including the
// deflected-eviction protocol.
func BenchmarkRPcacheFill(b *testing.B) {
	c := rpcache.NewWithPolicy(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, rng.New(1), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SetActiveDomain(i & 1)
		c.Fill(mem.Line(i), cache.FillOpts{Owner: i & 1})
	}
}

// BenchmarkNoMoFill measures the NoMo reservation-aware fill path.
func BenchmarkNoMoFill(b *testing.B) {
	c := nomo.NewWithPolicy(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, 2, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(mem.Line(i), cache.FillOpts{Owner: i & 1})
	}
}

// BenchmarkBlowfishBlock measures the second table-based cipher.
func BenchmarkBlowfishBlock(b *testing.B) {
	c, err := blowfish.New([]byte("benchmark key"))
	if err != nil {
		b.Fatal(err)
	}
	var in, out [8]byte
	b.SetBytes(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Encrypt(out[:], in[:], nil)
	}
}

// BenchmarkModexpSpy measures one full Percival attack (flush+reload per
// exponent window) against a 128-bit exponent.
func BenchmarkModexpSpy(b *testing.B) {
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	e, err := modexp.New(big.NewInt(7), mod, 4)
	if err != nil {
		b.Fatal(err)
	}
	secret, _ := new(big.Int).SetString("DEADBEEFCAFEBABE0123456789ABCDEF", 16)
	mk := func(src *rng.Source) cache.Cache {
		return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := modexp.Spy(e, secret, modexp.DefaultLayout(), mk, rng.Window{}, uint64(i+1))
		if res.CorrectWindows != res.Windows {
			b.Fatal("attack failed")
		}
	}
}

// BenchmarkTraceRoundTrip measures trace serialization + deserialization.
func BenchmarkTraceRoundTrip(b *testing.B) {
	g, _ := workloads.ByName("lbm")
	trace := g.Gen(50000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := traceio.Write(&buf, trace); err != nil {
			b.Fatal(err)
		}
		got, err := traceio.Read(&buf)
		if err != nil || len(got) != len(trace) {
			b.Fatal("round trip failed")
		}
	}
}

// BenchmarkWindowGenerator measures the Figure 4 datapath model.
func BenchmarkWindowGenerator(b *testing.B) {
	g := rng.NewWindowGenerator(rng.New(1))
	g.SetWindow(rng.Window{A: 16, B: 15})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Offset()
	}
}

// BenchmarkCapacity measures the Equation 8 closed form at M=128.
func BenchmarkCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = infotheory.Capacity(128, 128, 127)
	}
}
