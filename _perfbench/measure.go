package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// usage is what one metered section cost the host.
type usage struct {
	wall, cpu     time.Duration
	allocBytes    uint64
	peakHeapBytes uint64
}

// heapPoll is how often a meter samples the live heap for its peak. The
// sampler reads runtime/metrics, which does not stop the world.
const heapPoll = 2 * time.Millisecond

// meter measures one section: wall and CPU time, bytes allocated, and the
// peak of the Go heap in use.
type meter struct {
	start  time.Time
	cpu0   time.Duration
	alloc0 uint64
	peak   uint64
	stopc  chan struct{}
	done   chan struct{}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startMeter collects garbage, so every section starts from the same live
// heap, then starts the clocks and the heap sampler. stop must be called.
func startMeter() *meter {
	runtime.GC()
	m := &meter{
		alloc0: totalAlloc(),
		peak:   heapInUse(),
		stopc:  make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(heapPoll)
		defer t.Stop()
		for {
			select {
			case <-m.stopc:
				return
			case <-t.C:
				m.peak = max(m.peak, heapInUse())
			}
		}
	}()
	m.cpu0 = cpuTime()
	m.start = time.Now()
	return m
}

func (m *meter) stop() usage {
	u := usage{wall: time.Since(m.start), cpu: cpuTime() - m.cpu0}
	close(m.stopc)
	<-m.done
	u.peakHeapBytes = max(m.peak, heapInUse())
	u.allocBytes = totalAlloc() - m.alloc0
	return u
}

// minTimedRuns is the fewest runs a measurement window reports a median of.
const minTimedRuns = 3

// runSeed derives the seed of run k of a window from the benchmark seed, so
// the same benchmark seed gives the same inputs and every run in a window
// draws different ones.
func runSeed(seed uint64, k int) uint64 { return seed*1000 + uint64(k) + 2 }

// timedRuns runs the workload back to back until window has elapsed (and
// at least minTimedRuns times), each run at its own derived seed, and
// returns every run.
func timedRuns(ctx context.Context, w workload, seed uint64, window time.Duration, dir string) []pass {
	var runs []pass
	start := time.Now()
	for k := 0; k < minTimedRuns || time.Since(start) < window; k++ {
		sc := w.scaleFor(runSeed(seed, k))
		if w.checkpointed {
			store, err := freshStore(filepath.Join(dir, "store"))
			if err != nil {
				runs = append(runs, pass{err: err})
				continue
			}
			sc.Checkpoint = store
		}
		runs = append(runs, w.runPass(ctx, sc))
	}
	return runs
}

// setupProbes is how many times a run measures set-up.
const setupProbes = 51

// probeSetup measures set-up n times: each time it starts this binary in
// probe mode and times process start to the probe's "ready" line, printed
// where the first timed unit would begin (init, Scale, store open).
func probeSetup(w workload, seed uint64, dir string, n int) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-probe", "-workload", w.name,
			"-seed", strconv.FormatUint(seed, 10), "-workdir", dir)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		_, _ = io.Copy(io.Discard, stdout)
		werr := cmd.Wait()
		switch {
		case werr != nil:
			return nil, fmt.Errorf("set-up probe: %w", werr)
		case rerr != nil || line != "ready\n":
			return nil, fmt.Errorf("set-up probe printed %q (%v)", line, rerr)
		}
		out = append(out, d)
	}
	return out, nil
}

// probeMain is the probe child: everything a run does before its first
// timed unit, then "ready".
func probeMain(w workload, seed uint64, dir string, stdout io.Writer) error {
	sc := w.scaleFor(seed)
	for _, name := range w.experiments {
		if _, err := w.lookup(name); err != nil {
			return err
		}
	}
	if w.checkpointed {
		store, err := freshStore(filepath.Join(dir, fmt.Sprintf("probe-%d", os.Getpid())))
		if err != nil {
			return err
		}
		sc.Checkpoint = store
		defer os.RemoveAll(store.Dir())
	}
	_, err := fmt.Fprintln(stdout, "ready")
	return err
}

// median of the values, which must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
