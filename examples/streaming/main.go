// Section VII's performance surprise: a security mechanism that speeds
// programs up. The libquantum-style irregular streaming workload is
// latency-bound under demand fetch; the random fill window acts as a
// variable-distance prefetcher and beats a classic tagged next-line
// prefetcher, because its fill candidates reach up to 15 lines ahead.
package main

import (
	"fmt"

	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

func main() {
	bench, _ := workloads.ByName("libquantum")
	// Compile the trace once; every configuration replays it.
	ct := trace.Compile(bench.Gen(300000, 1))
	fmt.Printf("workload: %s — %s\n\n", bench.Name, bench.Class)

	type variant struct {
		name string
		run  func() sim.Result
	}
	var baseIPC float64
	variants := []variant{
		{"demand fetch", func() sim.Result {
			return sim.New(sim.Config{Seed: 1}).RunTraceSteady(sim.ThreadConfig{}, ct)
		}},
		{"tagged next-line prefetcher", func() sim.Result {
			m := sim.New(sim.Config{Seed: 1})
			m.Prefetcher = prefetch.NewTagged()
			return m.RunTraceSteady(sim.ThreadConfig{}, ct)
		}},
		{"random fill, forward window [0,15]", func() sim.Result {
			return sim.New(sim.Config{Seed: 1}).RunTraceSteady(sim.ThreadConfig{
				Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 15},
			}, ct)
		}},
		{"random fill, bidirectional [-16,+15]", func() sim.Result {
			return sim.New(sim.Config{Seed: 1}).RunTraceSteady(sim.ThreadConfig{
				Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15},
			}, ct)
		}},
	}

	fmt.Printf("%-40s %8s %8s %10s\n", "configuration", "IPC", "MPKI", "vs demand")
	for i, v := range variants {
		res := v.run()
		if i == 0 {
			baseIPC = res.IPC()
		}
		fmt.Printf("%-40s %8.3f %8.1f %+9.1f%%\n",
			v.name, res.IPC(), res.MPKI(), 100*(res.IPC()/baseIPC-1))
	}

	fmt.Println("\nThe forward window wins: the streaming access pattern only moves")
	fmt.Println("forward, so backward fill candidates are wasted — which is also why")
	fmt.Println("the paper's security analysis uses bidirectional windows (crypto")
	fmt.Println("table lookups have no preferred direction) but its streaming")
	fmt.Println("results use forward ones.")
}
