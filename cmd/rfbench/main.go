// Command rfbench is the repository's performance-regression harness: it
// times a fixed set of named kernels — the hot paths behind the paper's
// experiments — and writes the results as a schema'd BENCH.json, which can
// be compared against a committed baseline to gate regressions.
//
// Examples:
//
//	rfbench                          # run all kernels, JSON to stdout
//	rfbench -short -count 5 -out BENCH.json  # CI smoke set, write baseline
//	rfbench -short -count 5 -compare BENCH.json  # exit 1 on >20% median ns/op regression
//	rfbench -kernels table3-cell,sim-replay  # subset
//	rfbench -list                            # enumerate kernels
//
// Timing is delegated to testing.Benchmark, so kernels auto-scale their
// iteration counts and report allocations exactly like `go test -bench`.
// With -count N the kernel list runs N times in interleaved rounds, so a
// slow minute on a shared host lands on every kernel rather than on one,
// and each kernel records its median round with the fastest and slowest.
// Performance methodology, including how the kernels were chosen, is in
// DESIGN.md §7.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"randfill/internal/aes"
	"randfill/internal/atomicio"
	"randfill/internal/attacks"
	"randfill/internal/cache"
	"randfill/internal/experiments"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// Schema identifies the BENCH.json layout; bump on incompatible change.
const Schema = "randfill-bench/v1"

// Report is the top-level BENCH.json document.
type Report struct {
	Schema  string   `json:"schema"`
	Commit  string   `json:"commit"`
	Go      string   `json:"go"`
	Host    Host     `json:"host"`
	Kernels []Kernel `json:"kernels"`
}

// Host is the machine a report was measured on. The field is additive to
// the v1 schema: a baseline recorded before it reads as the zero Host.
type Host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// thisHost describes the running machine.
func thisHost() Host {
	return Host{CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (h Host) String() string {
	if h == (Host{}) {
		return "not recorded"
	}
	return fmt.Sprintf("%s, %d CPUs, GOMAXPROCS %d", h.CPU, h.NumCPU, h.GOMAXPROCS)
}

// Kernel is one measured kernel: its median round (the lower median for an
// even count) and, in NsPerOpMin and NsPerOpMax, the spread of ns/op over
// its Rounds rounds. A baseline recorded before rounds existed reads as
// zero Rounds, min and max.
type Kernel struct {
	Name        string  `json:"name"`
	Rounds      int     `json:"rounds"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// summarize returns the kernel record of rounds, one result per round: the
// median round's iterations, ns/op and allocations, with the ns/op range.
func summarize(name string, rounds []testing.BenchmarkResult) Kernel {
	ns := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }
	sorted := slices.Clone(rounds)
	slices.SortStableFunc(sorted, func(a, b testing.BenchmarkResult) int { return cmp.Compare(ns(a), ns(b)) })
	med := sorted[(len(sorted)-1)/2]
	return Kernel{
		Name:        name,
		Rounds:      len(rounds),
		Iterations:  med.N,
		NsPerOp:     ns(med),
		NsPerOpMin:  ns(sorted[0]),
		NsPerOpMax:  ns(sorted[len(sorted)-1]),
		BytesPerOp:  med.AllocedBytesPerOp(),
		AllocsPerOp: med.AllocsPerOp(),
	}
}

// kernelDef names a benchmark kernel. The short flag selects the reduced
// budget used by the CI smoke job; both budgets measure the same code
// paths, the short one just bounds wall-clock.
type kernelDef struct {
	name string
	desc string
	run  func(short bool, b *testing.B)
}

func kernels() []kernelDef {
	return []kernelDef{
		{
			name: "table3-cell",
			desc: "one Table III cell: sharded Monte Carlo P1-P2 + measurements-to-success search (workers=1)",
			run: func(short bool, b *testing.B) {
				sc := experiments.QuickScale()
				sc.Workers = 1
				if short {
					sc.MonteCarloTrials = 4000
					sc.AttackMaxSamples = 1 << 13
					sc.AttackBatch = 1 << 12
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tb := experiments.Table3Cell(sc, 2)
					if len(tb.Rows) != 1 {
						b.Fatal("bad cell table")
					}
				}
			},
		},
		{
			name: "collision-sweep",
			desc: "final-round collision attack measurement loop (per-sample encrypt + replay + stats)",
			run: func(short bool, b *testing.B) {
				batch := 2000
				if short {
					batch = 500
				}
				cfg := attacks.CollisionConfig{Sim: sim.AttackerConfig(), Seed: 7}
				a := attacks.NewCollision(cfg)
				a.Collect(8) // warm scratch buffers out of the timed region
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Collect(batch)
				}
			},
		},
		{
			name: "sim-replay",
			desc: "timing-simulator batch replay of an AES-CBC trace under a random fill window",
			run: func(short bool, b *testing.B) {
				tr := aesTrace(b, 11, short)
				machine := sim.New(sim.DefaultConfig())
				thread := machine.NewThread(sim.ThreadConfig{
					Mode:   sim.ModeRandomFill,
					Window: rng.Symmetric(16),
				})
				// Compile once, replay per op: the batch core's contract is
				// that a trace is decoded a single time (DESIGN.md §12), so
				// the kernel times replay of the precompiled word stream.
				ct := trace.Compile(tr)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					thread.ReplayBatch(ct)
					thread.Drain()
				}
			},
		},
		{
			name: "hierarchy-replay",
			desc: "3-level hierarchy batch replay of an AES-CBC trace: random fill at L1 and L2, demand-fill L3",
			run: func(short bool, b *testing.B) {
				tr := aesTrace(b, 13, short)
				cfg := sim.DefaultConfig()
				cfg.Levels = []sim.LevelConfig{
					{Geom: cache.Geometry{SizeBytes: 256 * 1024, Ways: 8}, HitLat: 12, Window: rng.Window{A: 8, B: 7}},
					{Geom: cache.Geometry{SizeBytes: 2 * 1024 * 1024, Ways: 16}, HitLat: 40},
				}
				machine := sim.New(cfg)
				thread := machine.NewThread(sim.ThreadConfig{
					Mode:   sim.ModeRandomFill,
					Window: rng.Symmetric(16),
				})
				ct := trace.Compile(tr)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					thread.ReplayBatch(ct)
					thread.Drain()
				}
			},
		},
		{
			name: "smt-corun",
			desc: "Figure 8 SMT co-run on a 16 KB DM Newcache L1: SPEC-like main thread next to the AES enc+dec thread, one steady co-run per op",
			run: func(short bool, b *testing.B) {
				accesses := 30_000
				if short {
					accesses = 8_000
				}
				bench, ok := workloads.ByName("sjeng")
				if !ok {
					b.Fatal("no sjeng workload")
				}
				tracer, pt, iv := aesInputs(b, 19, short)
				ct, enc, err := tracer.EncryptCBC(pt, iv)
				if err != nil {
					b.Fatal(err)
				}
				_, dec, err := tracer.DecryptCBC(ct, iv)
				if err != nil {
					b.Fatal(err)
				}
				// Both traces are compiled once, as Figure 8 compiles them
				// once per run (crypto) and once per work item (benchmark).
				mainCT := trace.Compile(bench.Gen(accesses, 19))
				cryptoCT := trace.Compile(append(enc, dec...))
				cfg := sim.DefaultConfig()
				cfg.L1 = cache.Geometry{SizeBytes: 16 * 1024, Ways: 1}
				cfg.L1Kind = sim.KindNewcache
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := sim.New(cfg).RunSMTSteadyCompiled(sim.ThreadConfig{Owner: 0}, mainCT, sim.ThreadConfig{Owner: 1}, cryptoCT)
					if res.Instructions == 0 {
						b.Fatal("co-run executed nothing")
					}
				}
			},
		},
		{
			name: "l1-miss",
			desc: "demand L1 misses that hit the L2: a warm replay of 32,768 reads over 16,384 lines (they fit the 2 MB L2, not the 32 KB L1)",
			run:  func(_ bool, b *testing.B) { l1Miss(b, sim.ThreadConfig{}) },
		},
		{
			name: "l1-miss-randfill",
			desc: "l1-miss under random fill [-16,+15]",
			run: func(_ bool, b *testing.B) {
				l1Miss(b, sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15}})
			},
		},
		{
			name: "occupancy-probe",
			desc: "cache-occupancy attack round loop: prime, victim sweep, probe-miss count (scattercache)",
			run: func(short bool, b *testing.B) {
				trials := 100
				if short {
					trials = 25
				}
				p := attacks.NewOccupancyProber(attacks.OccupancyConfig{
					NewCache: func(src *rng.Source) securecache.SecureCache {
						c, err := securecache.New("scattercache", securecache.Config{
							Geom: cache.Geometry{SizeBytes: 8 * 1024, Ways: 4},
						}, src)
						if err != nil {
							b.Fatal(err)
						}
						return c
					},
					Lines:       96,
					VictimSizes: []int{16, 32, 64, 96},
					Trials:      trials,
					Seed:        17,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Each Run continues the prober's RNG stream: fresh
					// rounds per op, zero allocations (the scratch pins in
					// internal/attacks hold this at 0 allocs/op).
					if res := p.Run(); res.Trials != 4*trials {
						b.Fatal("short occupancy run")
					}
				}
			},
		},
		{
			name: "reuse-clflush",
			desc: "design-generic Flush-Reload (attacks.Reuse) on the registry's newcache and rpcache, 32 KB 4-way: 48 clflushes, a victim access and 48 probes per trial",
			run: func(short bool, b *testing.B) {
				trials := 2000
				if short {
					trials = 500
				}
				var probes []attacks.ReuseConfig
				for _, name := range []string{"newcache", "rpcache"} {
					d, ok := securecache.ByName(name)
					if !ok {
						b.Fatalf("no %s design", name)
					}
					probes = append(probes, attacks.ReuseConfig{
						NewCache: func(src *rng.Source) securecache.SecureCache {
							return d.New(securecache.Config{Geom: cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}}, src)
						},
						Region: mem.Region{Base: 0x11000, Size: 1024},
						Pad:    16,
						Trials: trials,
						Seed:   5,
					})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, cfg := range probes {
						if res := attacks.Reuse(cfg); res.Trials != trials {
							b.Fatal("short reuse run")
						}
					}
				}
			},
		},
		{
			name: "flushreload-probe",
			desc: "Flush-Reload probe loop: flush, victim access, reload over the observable range",
			run: func(short bool, b *testing.B) {
				trials := 4000
				if short {
					trials = 1000
				}
				p := attacks.NewFlushReloadProber(attacks.FlushReloadConfig{
					NewCache: func(src *rng.Source) cache.Cache {
						return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
					},
					Window: rng.Symmetric(32),
					Region: mem.Region{Base: 0x11000, Size: 1024},
					Trials: trials,
					Seed:   9,
				})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res := p.Run(); res.Trials != trials {
						b.Fatal("short flush-reload run")
					}
				}
			},
		},
	}
}

// l1Miss times one L1 miss path: each op replays, on a default machine
// warmed by one unmeasured pass, a compiled trace of 32,768 reads whose
// lines are drawn from 16,384 lines. Nearly every read misses the 32 KB L1
// and hits the 2 MB L2, and NonMem 99 spaces the reads so the miss queue
// never fills: ns/op / 32,768 is the cost of one miss under tc.
func l1Miss(b *testing.B, tc sim.ThreadConfig) {
	const reads, lines = 32_768, 16_384
	src := rng.New(23)
	tr := make(mem.Trace, reads)
	for i := range tr {
		tr[i] = mem.Access{Addr: 0x1000000 + mem.AddrOf(mem.Line(src.Intn(lines))), NonMem: 99}
	}
	ct := trace.Compile(tr)
	thread := sim.New(sim.DefaultConfig()).NewThread(tc)
	thread.RunCompiled(ct)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		thread.RunCompiled(ct)
	}
}

// aesTrace builds the shared AES-CBC replay workload: an 8 KB (short: 2 KB)
// encryption traced at the default table layout, seeded deterministically.
func aesTrace(b *testing.B, seed uint64, short bool) mem.Trace {
	tracer, pt, iv := aesInputs(b, seed, short)
	_, tr, err := tracer.EncryptCBC(pt, iv)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// aesInputs returns a tracer at the default table layout and an 8 KB
// (short: 2 KB) plaintext with its IV, seeded deterministically.
func aesInputs(b *testing.B, seed uint64, short bool) (*aes.Tracer, []byte, []byte) {
	bytes := 8 * 1024
	if short {
		bytes = 2 * 1024
	}
	src := rng.New(seed)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, bytes)
	src.Bytes(pt)
	cipher, err := aes.New(key[:])
	if err != nil {
		b.Fatal(err)
	}
	return &aes.Tracer{Cipher: cipher, Layout: aes.DefaultLayout()}, pt, iv[:]
}

func main() {
	short := flag.Bool("short", false, "run the reduced CI smoke budgets")
	out := flag.String("out", "", "write BENCH.json to this file (default stdout)")
	compare := flag.String("compare", "", "baseline BENCH.json to diff against; regressions beyond -threshold exit nonzero")
	threshold := flag.Float64("threshold", 20, "median ns/op regression tolerance for -compare, in percent")
	count := flag.Int("count", 1, "interleaved rounds over the kernel list; each kernel records its median round")
	names := flag.String("kernels", "", "comma-separated kernel subset (default all)")
	list := flag.Bool("list", false, "list kernels and exit")
	commit := flag.String("commit", "", "commit hash to record (default from build info)")
	flag.Parse()

	defs := kernels()
	if *list {
		for _, k := range defs {
			fmt.Printf("%-18s %s\n", k.name, k.desc)
		}
		return
	}
	if *names != "" {
		defs = selectKernels(defs, strings.Split(*names, ","))
	}
	if *count < 1 {
		fatal(fmt.Errorf("-count %d: need at least one round", *count))
	}

	rep := Report{Schema: Schema, Commit: commitHash(*commit), Go: runtime.Version(), Host: thisHost()}
	rounds := make([][]testing.BenchmarkResult, len(defs))
	for round := 1; round <= *count; round++ {
		for i, def := range defs {
			fmt.Fprintf(os.Stderr, "running %s (round %d/%d)...\n", def.name, round, *count)
			rounds[i] = append(rounds[i], testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				def.run(*short, b)
			}))
		}
	}
	for i, def := range defs {
		rep.Kernels = append(rep.Kernels, summarize(def.name, rounds[i]))
	}

	if err := emit(rep, *out); err != nil {
		fatal(err)
	}
	if *compare != "" {
		ok, err := compareBaseline(rep, *compare, *threshold)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func selectKernels(defs []kernelDef, names []string) []kernelDef {
	byName := func(n string) *kernelDef {
		for i := range defs {
			if defs[i].name == n {
				return &defs[i]
			}
		}
		return nil
	}
	var out []kernelDef
	for _, n := range names {
		n = strings.TrimSpace(n)
		k := byName(n)
		if k == nil {
			fatal(fmt.Errorf("unknown kernel %q (see -list)", n))
		}
		out = append(out, *k)
	}
	return out
}

// commitHash resolves the commit to record: explicit flag, then the VCS
// stamp the go tool embeds when building from a checkout, then "unknown"
// (e.g. `go run` of a dirty tree with VCS stamping off).
func commitHash(override string) string {
	if override != "" {
		return override
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func emit(rep Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	// Atomic so an interrupted run can never leave a half-written BENCH.json
	// for compareBaseline (or CI) to choke on.
	return atomicio.WriteFile(path, data, 0o644)
}

// compareBaseline prints a benchstat-style delta table of rep against the
// baseline file — median ns/op and allocs/op side by side, with a geomean
// speedup over the kernels both runs measured — and reports whether every
// kernel's median is within the ns/op regression threshold. Kernels present
// on only one side are reported but never fail the gate (adding a kernel
// must not require regenerating history first). It prints both hosts and says when they
// differ, but gates either way: CI compares a hosted runner against a
// baseline recorded on another machine.
func compareBaseline(rep Report, path string, thresholdPct float64) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	if base.Schema != Schema {
		return false, fmt.Errorf("%s: schema %q, want %q", path, base.Schema, Schema)
	}
	old := make(map[string]Kernel, len(base.Kernels))
	for _, k := range base.Kernels {
		old[k.Name] = k
	}

	fmt.Printf("comparing against %s (commit %s)\n", path, base.Commit)
	fmt.Printf("baseline host: %v\n", base.Host)
	fmt.Printf("this host:     %v\n", rep.Host)
	if base.Host != rep.Host {
		fmt.Println("hosts differ: ns/op deltas include the change of host")
	}
	fmt.Printf("%-18s %14s %14s %8s %10s %10s %8s\n",
		"kernel", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	ok := true
	logRatioSum, compared := 0.0, 0
	for _, k := range rep.Kernels {
		o, found := old[k.Name]
		if !found {
			fmt.Printf("%-18s %14s %14.0f %8s %10s %10d %8s  (new kernel)\n",
				k.Name, "-", k.NsPerOp, "-", "-", k.AllocsPerOp, "-")
			continue
		}
		delta := 100 * (k.NsPerOp - o.NsPerOp) / o.NsPerOp
		verdict := ""
		if delta > thresholdPct {
			verdict = "  REGRESSION"
			ok = false
		}
		fmt.Printf("%-18s %14.0f %14.0f %+7.1f%% %10d %10d %8s%s\n",
			k.Name, o.NsPerOp, k.NsPerOp, delta,
			o.AllocsPerOp, k.AllocsPerOp, allocDelta(o.AllocsPerOp, k.AllocsPerOp), verdict)
		if o.NsPerOp > 0 && k.NsPerOp > 0 {
			logRatioSum += math.Log(k.NsPerOp / o.NsPerOp)
			compared++
		}
	}
	for _, k := range base.Kernels {
		if _, found := findKernel(rep.Kernels, k.Name); !found {
			fmt.Printf("%-18s %14.0f %14s %8s %10d %10s %8s  (not run)\n",
				k.Name, k.NsPerOp, "-", "-", k.AllocsPerOp, "-", "-")
		}
	}
	if compared > 0 {
		// benchstat convention: geomean of new/old time ratios over the
		// kernels measured on both sides; < 1.00x means faster overall.
		fmt.Printf("geomean ns/op ratio (new/old) over %d kernels: %.2fx\n",
			compared, math.Exp(logRatioSum/float64(compared)))
	}
	if !ok {
		fmt.Printf("FAIL: ns/op regression beyond %.0f%% tolerance\n", thresholdPct)
	}
	return ok, nil
}

// allocDelta formats the allocs/op change as a benchstat-style percentage,
// with the 0 → 0 and N → 0 edges spelled out.
func allocDelta(old, new int64) string {
	switch {
	case old == new:
		return "0.0%"
	case old == 0:
		return "+inf"
	default:
		return fmt.Sprintf("%+.1f%%", 100*float64(new-old)/float64(old))
	}
}

func findKernel(ks []Kernel, name string) (Kernel, bool) {
	for _, k := range ks {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfbench:", err)
	os.Exit(2)
}
