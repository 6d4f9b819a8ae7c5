// Command rfsim runs one workload on the timing simulator under a chosen
// cache configuration and fill policy, and prints the performance counters.
//
// Examples:
//
//	rfsim -workload aes                          # demand-fetch baseline
//	rfsim -workload aes -window -16,15           # random fill cache
//	rfsim -workload libquantum -window 0,15      # streaming speedup
//	rfsim -workload aes -design plcache -mode preload
//	rfsim -workload sjeng -l1 8192 -ways 1 -mode disable
//	rfsim -workload aes -design scattercache     # registry design by name
//	rfsim -workload aes -design randfill         # SA + the paper's window
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"randfill/internal/aes"
	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/traceio"
	"randfill/internal/workloads"
)

func main() {
	workload := flag.String("workload", "aes", "aes, aesdec, or a benchmark: "+strings.Join(workloads.Names(), ", "))
	traceFile := flag.String("trace", "", "replay a trace file (see cmd/rftrace) instead of generating a workload")
	l1size := flag.Int("l1", 32*1024, "L1 data cache size in bytes")
	ways := flag.Int("ways", 4, "L1 associativity")
	design := flag.String("design", "sa", "L1 design: sa (the Table IV cache) or a registry design: "+strings.Join(securecache.Names(), ", "))
	policy := flag.String("policy", "", "L1 replacement policy override ("+strings.Join(cache.PolicyNames(), ", ")+"; default: the architecture's own)")
	window := flag.String("window", "0,0", "random fill window as 'a,b' meaning [i-a, i+b]")
	l2window := flag.String("l2window", "0,0", "random fill window at the L2 ('a,b'; 0,0 = demand fill)")
	l3size := flag.Int("l3", 0, "add an L3 of this size in bytes (0 = two-level hierarchy)")
	l3ways := flag.Int("l3ways", 16, "L3 associativity")
	l3lat := flag.Uint64("l3lat", 40, "L3 hit latency in cycles")
	l3window := flag.String("l3window", "0,0", "random fill window at the L3 ('a,b'; requires -l3)")
	mode := flag.String("mode", "", "fill mode override: demand, randomfill, disable, preload")
	mshrs := flag.Int("mshrs", 4, "miss queue entries")
	accesses := flag.Int("n", 500000, "benchmark trace length (ignored for aes)")
	bytes := flag.Int("bytes", 32*1024, "AES CBC input size")
	seed := flag.Uint64("seed", 1, "random seed")
	steady := flag.Bool("steady", false, "warm the caches with one pass and measure the second")
	tagged := flag.Bool("prefetch", false, "attach a tagged next-line prefetcher")
	flag.Parse()

	w, err := parseWindow(*window)
	if err != nil {
		fatal(err)
	}

	w2, err := parseWindow(*l2window)
	if err != nil {
		fatal(err)
	}
	w3, err := parseWindow(*l3window)
	if err != nil {
		fatal(err)
	}

	kind, designTC := sim.DesignL1(*design)
	if err := securecache.CheckKind(string(kind)); err != nil {
		fatal(fmt.Errorf("%w, or randfill", err))
	}
	if w.Zero() && *mode == "" {
		// randfill runs with the paper's window unless one is given.
		w = designTC.Window
	}
	if !cache.KnownPolicy(*policy) {
		fatal(fmt.Errorf("unknown policy %q (have: %s)", *policy, strings.Join(cache.PolicyNames(), ", ")))
	}
	cfg := sim.DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: *l1size, Ways: *ways}
	cfg.L1Kind = kind
	cfg.L1Policy = *policy
	cfg.MissQueue = *mshrs
	cfg.Seed = *seed
	cfg.Levels[0].Window = w2
	if *l3size > 0 {
		cfg.Levels = append(cfg.Levels,
			sim.LevelConfig{Geom: cache.Geometry{SizeBytes: *l3size, Ways: *l3ways}, HitLat: *l3lat, Window: w3})
	} else if !w3.Zero() {
		fatal(fmt.Errorf("-l3window requires -l3"))
	}

	tc := sim.ThreadConfig{}
	switch *mode {
	case "", "demand":
		if !w.Zero() {
			tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
		}
	case "randomfill":
		if w.Zero() {
			fatal(fmt.Errorf("-mode randomfill needs a nonzero -window (the zero window is demand fetch)"))
		}
		tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
	case "disable":
		tc = sim.ThreadConfig{Mode: sim.ModeDisableSecret}
	case "preload":
		if kind != sim.KindPLcache {
			fatal(fmt.Errorf("-mode preload needs -design plcache, which locks the preloaded lines (have -design %s)", *design))
		}
		tc = sim.ThreadConfig{
			Mode:          sim.ModePreload,
			SecretRegions: aes.DefaultLayout().EncTableRegions(),
			Owner:         1,
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	var tr mem.Trace
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		tr, err = traceio.Read(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		*workload = *traceFile
	} else {
		var err error
		tr, err = buildTrace(*workload, *accesses, *bytes, *seed)
		if err != nil {
			fatal(err)
		}
	}

	m := sim.New(cfg)
	if *tagged {
		m.Prefetcher = prefetch.NewTagged()
	}
	ct := trace.Compile(tr)
	var res sim.Result
	if *steady {
		res = m.RunTraceSteady(tc, ct)
	} else {
		res = m.RunTrace(tc, ct)
	}

	fmt.Printf("workload:       %s (%d accesses, %d instructions)\n",
		*workload, len(tr), tr.Instructions())
	fmt.Printf("L1:             %v %s, window %v, mode %v\n", cfg.L1, cfg.L1Kind, w, tc.Mode)
	fmt.Printf("cycles:         %.0f\n", res.Cycles)
	fmt.Printf("IPC:            %.3f\n", res.IPC())
	fmt.Printf("L1 MPKI:        %.2f\n", res.MPKI())
	fmt.Printf("hits/misses:    %d / %d (+%d merged)\n", res.Hits, res.Misses, res.Merged)
	fmt.Printf("hit rate:       %.1f%%\n", 100*res.HitRate())
	fmt.Printf("random fills:   %d\n", res.RandomFills)
	fmt.Printf("prefetches:     %d\n", res.Prefetches)
	fmt.Printf("stall cycles:   %.0f (%.1f%%)\n", res.StallCycles, 100*res.StallCycles/res.Cycles)
	h := m.Hierarchy()
	for k := 1; k < h.Depth(); k++ {
		lvl := h.Level(k)
		s := lvl.Stats()
		fmt.Printf("L%d:             %d accesses, %d hits, %d misses, %d wb-in (%d allocated)",
			k+1, s.Accesses, s.Hits, s.Misses, s.WritebacksIn, s.WritebackAllocs)
		if fs := lvl.FillStats(); fs != nil {
			fmt.Printf(", rf issued/dropped/clamped %d/%d/%d",
				fs.RandomIssued, fs.RandomDropped, fs.RandomClamped)
		}
		fmt.Println()
	}
	fmt.Printf("memory:         %d fetches, %d write-backs\n", h.MemAccesses(), h.MemWritebacks())
}

func parseWindow(s string) (rng.Window, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return rng.Window{}, fmt.Errorf("window %q: want 'a,b'", s)
	}
	a, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	b, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return rng.Window{}, fmt.Errorf("window %q: bad integers", s)
	}
	if a < 0 {
		a = -a // accept '-16,15' as the paper writes windows
	}
	return rng.Window{A: a, B: b}, nil
}

func buildTrace(name string, n, bytes int, seed uint64) (mem.Trace, error) {
	switch name {
	case "aes", "aesdec":
		src := rng.New(seed)
		var key, iv [16]byte
		src.Bytes(key[:])
		src.Bytes(iv[:])
		pt := make([]byte, bytes)
		src.Bytes(pt)
		c, err := aes.New(key[:])
		if err != nil {
			return nil, err
		}
		tr := &aes.Tracer{Cipher: c, Layout: aes.DefaultLayout()}
		if name == "aes" {
			_, trace, err := tr.EncryptCBC(pt, iv[:])
			return trace, err
		}
		_, trace, err := tr.DecryptCBC(pt, iv[:])
		return trace, err
	default:
		g, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		return g.Gen(n, seed), nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfsim:", err)
	os.Exit(1)
}
