// The paper's closing performance idea, implemented: "Further performance
// improvements with the random fill cache may be possible by getting
// spatial locality profiles for different phases of the program, and
// setting the appropriate window size for each phase" (Section VII).
//
// A workload alternating a streaming phase with a video-encoding phase runs
// under each static window and under the online adaptive controller, which
// reprograms the window through the same set_RR system call the paper
// defines.
package main

import (
	"fmt"

	"randfill/internal/adaptive"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

func main() {
	const phase = 100000
	lq, _ := workloads.ByName("libquantum")
	h264, _ := workloads.ByName("h264ref")
	var tr mem.Trace
	for p := 0; p < 2; p++ {
		tr = append(tr, lq.Gen(phase, uint64(p+1))...)
		tr = append(tr, h264.Gen(2*phase, uint64(p+1))...)
	}
	fmt.Printf("workload: %d accesses alternating libquantum and h264ref phases\n\n", len(tr))
	ct := trace.Compile(tr) // the static runs replay one compiled copy

	static := func(name string, w rng.Window) float64 {
		m := sim.New(sim.Config{Seed: 1})
		tc := sim.ThreadConfig{}
		if !w.Zero() {
			tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
		}
		ipc := m.RunTrace(tc, ct).IPC()
		fmt.Printf("%-32s IPC %.3f\n", name, ipc)
		return ipc
	}
	static("static demand fetch", rng.Window{})
	best := static("static forward [0,15]", rng.Window{A: 0, B: 15})
	static("static bidirectional [-8,+7]", rng.Window{A: 8, B: 7})

	m := sim.New(sim.Config{Seed: 1})
	th := m.NewThread(sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 1}})
	ctl := adaptive.New(th, adaptive.Config{Epoch: phase / 10, ExploitEpochs: 6})
	ipc := ctl.Run(tr).IPC()
	fmt.Printf("%-32s IPC %.3f (%d set_RR calls, %.1f%% of the oracle static)\n",
		"adaptive controller", ipc, ctl.Switches, 100*ipc/best)

	fmt.Println("\nThe controller explores {demand, [0,3], [0,15], [-8,+7]} for an")
	fmt.Println("epoch each, exploits the winner, and re-explores to track phase")
	fmt.Println("changes — no workload knowledge, no recompilation, and the security")
	fmt.Println("floor for secret-handling threads is a one-line constraint on the")
	fmt.Println("candidate set (adaptive.Config.MinSize).")
}
