package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"randfill/internal/checkpoint"
	"randfill/internal/experiments"
)

// workload is one benchmark input: registered experiments run back to back
// through experiments.ByName(name).Run, exactly as cmd/experiments runs them.
type workload struct {
	name string
	why  string
	// experiments are registry names, run in order.
	experiments []string
	// rows is the total number of table rows the experiments render, the
	// structural check applied to every run whatever its seed.
	rows int
	// units is the number of Scale.Track work units of the resumable
	// experiments (0 when the workload has none).
	units int
	// checkpointed runs the experiments with a fresh checkpoint.Store, then
	// a resume pass over the same store that must re-render every table
	// byte for byte without computing.
	checkpointed bool
	// budget sets the Scale fields the workload's experiments read.
	budget func(*experiments.Scale)
}

// workloadList holds the benchmark's workloads. Budgets are sized so one
// run of a workload takes a few seconds on a 2-CPU host, so a measurement
// window holds several runs and reports their median.
var workloadList = []workload{
	{
		name:        "security",
		why:         "Table III: many short cold replays, a Monte Carlo P1-P2 estimate and a collision search per cell",
		experiments: []string{"Table3"},
		rows:        12,
		units:       12,
		budget: func(sc *experiments.Scale) {
			sc.MonteCarloTrials = 4000
			sc.AttackMaxSamples = 1 << 12
			sc.AttackBatch = 1 << 10
		},
	},
	{
		name:        "spec",
		why:         "Figures 10 and 8: long warm SPEC-like streams through sim, hierarchy, core and cache; batch and scalar replay",
		experiments: []string{"Figure10", "Figure8"},
		rows:        16 + 18,
		budget: func(sc *experiments.Scale) {
			sc.SpecAccesses = 30_000
			sc.CBCBytes = 2 * 1024
		},
	},
	{
		name:         "matrix",
		why:          "PolicyMatrix: every design under every policy through the attack probers, with checkpoint puts and a resume pass",
		experiments:  []string{"PolicyMatrix"},
		rows:         42,
		units:        42,
		checkpointed: true,
		budget: func(sc *experiments.Scale) {
			sc.MonteCarloTrials = 40000
			sc.CBCBytes = 8 * 1024
		},
	},
}

// defaultSeed is the seed the committed digests were recorded at.
const defaultSeed = 1

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// benchWorkers is the experiments' worker count: two, or fewer on a
// smaller host, so the batch job never oversubscribes the CPUs.
func benchWorkers() int { return min(2, runtime.NumCPU()) }

// scaleFor returns the workload's Scale at seed.
func (w workload) scaleFor(seed uint64) experiments.Scale {
	sc := experiments.QuickScale()
	w.budget(&sc)
	sc.Seed = seed
	sc.Workers = benchWorkers()
	return sc
}

func (w workload) lookup(name string) (experiments.Experiment, error) {
	e, ok := experiments.ByName(name)
	if !ok {
		return e, fmt.Errorf("workload %s: experiment %s is not registered", w.name, name)
	}
	return e, nil
}

// runTables runs the workload's experiments once under sc.
func (w workload) runTables(ctx context.Context, sc experiments.Scale) ([]*experiments.Table, error) {
	var out []*experiments.Table
	for _, name := range w.experiments {
		e, err := w.lookup(name)
		if err != nil {
			return nil, err
		}
		t, err := e.Run(ctx, sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// render is the tables' text as cmd/experiments prints it, the input of the
// correctness digest.
func render(tables []*experiments.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
	}
	return b.String()
}

// checkRows applies the structural check every run gets.
func (w workload) checkRows(tables []*experiments.Table) error {
	n := 0
	for _, t := range tables {
		n += len(t.Rows)
	}
	if n != w.rows {
		return fmt.Errorf("%s rendered %d rows, want %d", w.name, n, w.rows)
	}
	return nil
}

// pass is one run of a workload with its outcome.
type pass struct {
	tables []*experiments.Table
	out    string
	// usage covers the experiments; resume is the checkpointed workload's
	// resume pass, which is timed apart.
	usage  usage
	resume time.Duration
	err    error
}

// freshStore opens an empty checkpoint store in dir.
func freshStore(dir string) (*checkpoint.Store, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return checkpoint.Open(dir)
}

// runPass runs the workload once under sc. A checkpointed workload's sc
// carries a fresh store; its resume pass then reads that store back.
func (w workload) runPass(ctx context.Context, sc experiments.Scale) pass {
	var p pass
	m := startMeter()
	p.tables, p.err = w.runTables(ctx, sc)
	p.usage = m.stop()
	if p.err != nil {
		return p
	}
	p.out = render(p.tables)
	if p.err = w.checkRows(p.tables); p.err != nil || !w.checkpointed {
		return p
	}
	var recomputed atomic.Int64
	sc.Resume = true
	sc.Track = func(_ checkpoint.Meta, done bool) {
		if done {
			recomputed.Add(1)
		}
	}
	start := time.Now()
	resumed, err := w.runTables(ctx, sc)
	p.resume = time.Since(start)
	switch {
	case err != nil:
		p.err = fmt.Errorf("resume pass: %w", err)
	case recomputed.Load() != 0:
		p.err = fmt.Errorf("resume pass recomputed %d units", recomputed.Load())
	case render(resumed) != p.out:
		p.err = fmt.Errorf("resume pass rendered different tables")
	}
	return p
}
