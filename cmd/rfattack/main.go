// Command rfattack mounts cache side channel attacks against the simulated
// cache architectures, demonstrating both the vulnerability of demand fetch
// and the random fill defense.
//
// Examples:
//
//	rfattack -attack collision -samples 250000          # break demand fetch
//	rfattack -attack collision -window 16,15            # attack the defense
//	rfattack -attack flushreload -window 16,15
//	rfattack -attack primeprobe -l1kind newcache
//	rfattack -attack evicttime
//
// Exit codes: 0 success; 1 error, with one line on stderr; 2 a command line
// the flag package rejects; 3 interrupted by SIGINT/SIGTERM — the collision
// attacks stop at the next batch boundary and report the partial result
// first; the other attacks exit without results. A second signal exits
// immediately (130).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"os/signal"
	"syscall"

	"randfill/internal/attacks"
	"randfill/internal/mem"
	"randfill/internal/modexp"
	"randfill/internal/profiling"
	"randfill/internal/rng"
	"randfill/internal/securecache"
	"randfill/internal/sim"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "rfattack:", err)
		if errors.Is(err, errInterrupted) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

var (
	// errUsage reports a command line the flag package rejected; it has
	// already printed why, with the usage.
	errUsage = errors.New("usage")
	// errInterrupted reports a collision search that a signal stopped
	// after it printed its partial result.
	errInterrupted = errors.New("interrupted — the results above are partial (the search did not reach its sample budget)")
)

// run parses args, mounts the attack and writes its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("rfattack", flag.ContinueOnError)
	attack := fs.String("attack", "collision", "collision, collision-first, flushreload, primeprobe, evicttime, modexp")
	window := fs.String("window", "0,0", "victim's random fill window as 'a,b'")
	l1kind := fs.String("l1kind", "sa", "L1 architecture: sa, newcache, plcache, rpcache, nomo, scattercache, mirage")
	samples := fs.Int("samples", 100000, "measurement budget")
	batch := fs.Int("batch", 4000, "collision attack success-check interval")
	seed := fs.Uint64("seed", 42, "random seed")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
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
	// The victim's machine: the attacker-favoring security configuration
	// with the -l1kind L1. Every attack runs on that L1 and window, so
	// Validate and ValidateThread decide them for all attacks.
	victim := attacks.CollisionConfig{Sim: sim.AttackerConfig(), Seed: *seed}
	victim.Sim.L1Kind = sim.CacheKind(*l1kind)
	if !w.Zero() {
		victim.Victim = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
	}
	if err := victim.Sim.Validate(); err != nil {
		return err
	}
	if err := victim.Sim.ValidateThread(victim.Victim); err != nil {
		return err
	}
	cooperative := *attack == "collision" || *attack == "collision-first"
	if *samples < 1 && !cooperative && *attack != "modexp" {
		return fmt.Errorf("-samples %d: want at least 1 trial", *samples)
	}

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	// The collision search checks its ctx at every batch boundary, so the
	// first signal lets it stop and report the partial result; the other
	// attacks run in one piece, so for them the first signal exits at once.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		var s os.Signal
		select {
		case s = <-sigc:
		case <-ctx.Done(): // run returned
			return
		}
		if !cooperative {
			fmt.Fprintf(os.Stderr, "rfattack: received %v; this attack is not interruptible mid-run, exiting without results\n", s)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "rfattack: received %v; stopping at the next batch boundary to report partial results (signal again to exit immediately)\n", s)
		cancel()
		<-sigc
		fmt.Fprintln(os.Stderr, "rfattack: second signal, exiting immediately")
		os.Exit(130)
	}()

	switch *attack {
	case "collision", "collision-first":
		return runCollision(ctx, stdout, *attack == "collision-first", victim, *samples, *batch)
	case "flushreload":
		runFlushReload(stdout, w, *l1kind, *samples, *seed)
	case "primeprobe":
		runPrimeProbe(stdout, w, *l1kind, *samples, *seed)
	case "evicttime":
		runEvictTime(stdout, w, *l1kind, *samples, *seed)
	case "modexp":
		return runModexpSpy(stdout, w, *l1kind, *seed)
	default:
		return fmt.Errorf("unknown attack %q", *attack)
	}
	return nil
}

func runCollision(ctx context.Context, stdout io.Writer, first bool, cfg attacks.CollisionConfig, samples, batch int) error {
	if first {
		cfg.Round = attacks.FirstRound
	}
	fmt.Fprintf(stdout, "cache collision attack (%s round) vs %s, victim window %v\n",
		map[bool]string{true: "first", false: "final"}[first], cfg.Sim.L1Kind, cfg.Victim.Window)
	res, err := attacks.MeasurementsToSuccessCtx(ctx, cfg, batch, samples)
	if err != nil && ctx.Err() == nil {
		return err // a budget the search cannot run
	}
	if res.Success {
		fmt.Fprintf(stdout, "SUCCESS: full key XOR relations recovered after %d measurements\n", res.Measurements)
	} else {
		fmt.Fprintf(stdout, "no success after %d measurements (best: %d pairs correct)\n",
			res.Measurements, res.CorrectPairs)
	}
	fmt.Fprintf(stdout, "sigma_T = %.1f cycles\n", res.SigmaT)
	if err != nil {
		return errInterrupted
	}
	return nil
}

func table() mem.Region { return mem.Region{Base: 0x11000, Size: 1024} }

func runFlushReload(stdout io.Writer, w rng.Window, l1kind string, trials int, seed uint64) {
	res := attacks.FlushReload(attacks.FlushReloadConfig{
		NewCache: securecache.L1Factory(l1kind),
		Window:   w,
		Region:   table(),
		Trials:   trials,
		Seed:     seed,
	})
	fmt.Fprintf(stdout, "flush-reload vs %s, victim window %v, %d trials\n", l1kind, w, trials)
	fmt.Fprintf(stdout, "victim line observed: %.1f%% of trials\n", 100*res.Accuracy)
	fmt.Fprintf(stdout, "empirical channel: %.3f bits per access (demand fetch carries 4 bits)\n", res.MutualInfo)
}

func runPrimeProbe(stdout io.Writer, w rng.Window, l1kind string, trials int, seed uint64) {
	res := attacks.PrimeProbe(attacks.PrimeProbeConfig{
		NewCache:     securecache.L1Factory(l1kind),
		Sets:         128,
		Ways:         4,
		Window:       w,
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       trials,
		Seed:         seed,
	})
	fmt.Fprintf(stdout, "prime-probe vs %s, victim window %v, %d trials\n", l1kind, w, trials)
	fmt.Fprintf(stdout, "exact set inferred:    %.1f%%\n", 100*res.ExactAccuracy)
	fmt.Fprintf(stdout, "within window of set:  %.1f%%\n", 100*res.WindowAccuracy)
}

func runEvictTime(stdout io.Writer, w rng.Window, l1kind string, trials int, seed uint64) {
	res := attacks.EvictTime(attacks.EvictTimeConfig{
		NewCache:     securecache.L1Factory(l1kind),
		Sets:         128,
		Ways:         4,
		TargetSet:    int(table().FirstLine()) & 127,
		Window:       w,
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       trials,
		Seed:         seed,
	})
	fmt.Fprintf(stdout, "evict-time vs %s, victim window %v, %d trials\n", l1kind, w, trials)
	fmt.Fprintf(stdout, "mean time, victim used evicted set: %.2f\n", res.MeanTimeTarget)
	fmt.Fprintf(stdout, "mean time, otherwise:               %.2f\n", res.MeanTimeOther)
	fmt.Fprintf(stdout, "signal: %.2f\n", res.Signal)
}

func runModexpSpy(stdout io.Writer, w rng.Window, l1kind string, seed uint64) error {
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	e, err := modexp.New(big.NewInt(7), mod, 4)
	if err != nil {
		return err
	}
	secret := randBigInt(rng.New(seed).Split(0x5ec7e7), mod)
	res := modexp.Spy(e, secret, modexp.DefaultLayout(), securecache.L1Factory(l1kind), w, seed)
	fmt.Fprintf(stdout, "percival spy vs %s, victim window %v\n", l1kind, w)
	fmt.Fprintf(stdout, "secret exponent:    %X\n", secret)
	fmt.Fprintf(stdout, "recovered exponent: %X\n", res.Recovered)
	fmt.Fprintf(stdout, "windows recovered:  %d/%d\n", res.CorrectWindows, res.Windows)
	if res.Recovered.Cmp(secret) == 0 {
		fmt.Fprintln(stdout, "FULL SECRET EXPONENT RECOVERED")
	}
	return nil
}

// randBigInt returns a uniform value in [0, max) drawn from the seeded
// source, by rejection sampling on max.BitLen() bits. This keeps the attack
// CLI bit-reproducible from -seed, where the old math/rand adapter tied the
// secret to a second, unseeded-looking stream.
func randBigInt(src *rng.Source, max *big.Int) *big.Int {
	bits := max.BitLen()
	if bits == 0 {
		return new(big.Int)
	}
	buf := make([]byte, (bits+7)/8)
	mask := byte(0xff >> (8*len(buf) - bits))
	for {
		src.Bytes(buf)
		buf[0] &= mask
		if v := new(big.Int).SetBytes(buf); v.Cmp(max) < 0 {
			return v
		}
	}
}
