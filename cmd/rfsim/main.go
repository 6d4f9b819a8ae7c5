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
//
// A configuration the simulator cannot build (sim.Config.Validate and
// ValidateThread decide) exits 1 with one line on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "rfsim:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag package rejected; it has
// already printed why, with the usage.
var errUsage = errors.New("usage")

// run parses args, runs the simulation and writes the counters to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rfsim", flag.ContinueOnError)
	workload := fs.String("workload", "aes", "aes, aesdec, or a benchmark: "+strings.Join(workloads.Names(), ", "))
	traceFile := fs.String("trace", "", "replay a trace file (see cmd/rftrace) instead of generating a workload")
	l1size := fs.Int("l1", 32*1024, "L1 data cache size in bytes")
	ways := fs.Int("ways", 4, "L1 associativity")
	design := fs.String("design", "sa", "L1 design: sa (the Table IV cache) or a registry design: "+strings.Join(securecache.Names(), ", "))
	policy := fs.String("policy", "", "L1 replacement policy override ("+strings.Join(cache.PolicyNames(), ", ")+"; default: the architecture's own)")
	window := fs.String("window", "0,0", "random fill window as 'a,b' meaning [i-a, i+b]")
	l2window := fs.String("l2window", "0,0", "random fill window at the L2 ('a,b'; 0,0 = demand fill)")
	l3size := fs.Int("l3", 0, "add an L3 of this size in bytes (0 = two-level hierarchy)")
	l3ways := fs.Int("l3ways", 16, "L3 associativity")
	l3lat := fs.Uint64("l3lat", 40, "L3 hit latency in cycles")
	l3window := fs.String("l3window", "0,0", "random fill window at the L3 ('a,b'; requires -l3)")
	mode := fs.String("mode", "", "fill mode override: demand, randomfill, disable, preload")
	mshrs := fs.Int("mshrs", 4, "miss queue entries")
	accesses := fs.Int("n", 500000, "benchmark trace length (ignored for aes)")
	bytes := fs.Int("bytes", 32*1024, "AES CBC input size")
	seed := fs.Uint64("seed", 1, "random seed")
	steady := fs.Bool("steady", false, "warm the caches with one pass and measure the second")
	tagged := fs.Bool("prefetch", false, "attach a tagged next-line prefetcher")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	w, err := rng.ParseWindow(*window)
	if err != nil {
		return err
	}
	w2, err := rng.ParseWindow(*l2window)
	if err != nil {
		return err
	}
	w3, err := rng.ParseWindow(*l3window)
	if err != nil {
		return err
	}

	kind, designTC := sim.DesignL1(*design)
	if w.Zero() && *mode == "" {
		// randfill runs with the paper's window unless one is given.
		w = designTC.Window
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
		return fmt.Errorf("-l3window requires -l3")
	}

	tc := sim.ThreadConfig{}
	switch *mode {
	case "", "demand":
		if !w.Zero() {
			tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
		}
	case "randomfill":
		tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
	case "disable":
		tc = sim.ThreadConfig{Mode: sim.ModeDisableSecret}
	case "preload":
		tc = sim.ThreadConfig{
			Mode:          sim.ModePreload,
			SecretRegions: aes.DefaultLayout().EncTableRegions(),
			Owner:         1,
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := cfg.ValidateThread(tc); err != nil {
		return err
	}

	var tr mem.Trace
	if *traceFile != "" {
		tr, err = readTrace(*traceFile)
		*workload = *traceFile
	} else {
		tr, err = buildTrace(*workload, *accesses, *bytes, *seed)
	}
	if err != nil {
		return err
	}
	if len(tr) == 0 {
		return fmt.Errorf("%s: empty trace", *workload)
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

	fmt.Fprintf(stdout, "workload:       %s (%d accesses, %d instructions)\n",
		*workload, len(tr), tr.Instructions())
	fmt.Fprintf(stdout, "L1:             %v %s, window %v, mode %v\n", cfg.L1, cfg.L1Kind, w, tc.Mode)
	fmt.Fprintf(stdout, "cycles:         %.0f\n", res.Cycles)
	fmt.Fprintf(stdout, "IPC:            %.3f\n", res.IPC())
	fmt.Fprintf(stdout, "L1 MPKI:        %.2f\n", res.MPKI())
	fmt.Fprintf(stdout, "hits/misses:    %d / %d (+%d merged)\n", res.Hits, res.Misses, res.Merged)
	fmt.Fprintf(stdout, "hit rate:       %.1f%%\n", 100*res.HitRate())
	fmt.Fprintf(stdout, "random fills:   %d\n", res.RandomFills)
	fmt.Fprintf(stdout, "prefetches:     %d\n", res.Prefetches)
	fmt.Fprintf(stdout, "stall cycles:   %.0f (%.1f%%)\n", res.StallCycles, 100*res.StallCycles/res.Cycles)
	h := m.Hierarchy()
	for k := 1; k < h.Depth(); k++ {
		lvl := h.Level(k)
		s := lvl.Stats()
		fmt.Fprintf(stdout, "L%d:             %d accesses, %d hits, %d misses, %d wb-in (%d allocated)",
			k+1, s.Accesses, s.Hits, s.Misses, s.WritebacksIn, s.WritebackAllocs)
		if fs := lvl.FillStats(); fs != nil {
			fmt.Fprintf(stdout, ", rf issued/dropped/clamped %d/%d/%d",
				fs.RandomIssued, fs.RandomDropped, fs.RandomClamped)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "memory:         %d fetches, %d write-backs\n", h.MemAccesses(), h.MemWritebacks())
	return nil
}

// readTrace reads a trace file written by cmd/rftrace.
func readTrace(path string) (mem.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := traceio.Read(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return tr, err
}

func buildTrace(name string, n, bytes int, seed uint64) (mem.Trace, error) {
	if n < 0 || bytes < 0 {
		return nil, fmt.Errorf("-n %d or -bytes %d is negative", n, bytes)
	}
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
