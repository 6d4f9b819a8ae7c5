// Package experiments regenerates every table and figure of the paper's
// evaluation. Each registered experiment is one unit plan: a fixed number
// of independent work units, each a pure function of (Scale, unit index),
// and a render from the unit results to a formatted Table whose rows mirror
// what the paper reports. The same plan runs in process (Experiment.Run,
// with optional checkpointing and resume) and across processes (PlanFor,
// internal/fabric); cmd/experiments drives both from the command line.
//
// Each experiment takes a Scale that controls sample counts and input
// sizes: FullScale approximates the paper's own budgets (hours of CPU for
// the attack searches); QuickScale produces the same qualitative shapes in
// seconds to minutes and is what the test suite asserts against.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"randfill/internal/checkpoint"
	"randfill/internal/fabric"
	"randfill/internal/parexp"
)

// Table is a formatted experiment result: the rows the paper's table or
// figure reports.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale controls the experiment budgets.
type Scale struct {
	// MonteCarloTrials for Table III's P1-P2 estimation (paper: 100,000).
	MonteCarloTrials int
	// AttackMaxSamples caps the measurements-to-success search (paper:
	// 2^24 — three weeks of gem5 time; see DESIGN.md).
	AttackMaxSamples int
	// AttackBatch is the search's check interval.
	AttackBatch int
	// Figure2Samples is the number of block encryptions behind the
	// timing characteristic chart (paper: 2^17).
	Figure2Samples int
	// CBCBytes is the AES CBC input size for Figures 6 and 7 (paper:
	// 32 KB).
	CBCBytes int
	// SpecAccesses is the per-benchmark trace length for Figures 8-10
	// (standing in for the paper's 2 billion instructions).
	SpecAccesses int
	// Seed drives all randomness.
	Seed uint64
	// Workers is the parallel experiment engine's concurrency; 0 selects
	// GOMAXPROCS. Worker-count invariance (internal/parexp) guarantees
	// the emitted tables are byte-identical for every value: Workers is a
	// speed knob, never a results knob, which is why it lives in Scale
	// next to the budget knobs rather than in each experiment's inputs.
	Workers int
	// Checkpoint, when non-nil, makes the experiments flush each
	// completed work unit through the store the moment it finishes, so an
	// interrupted run can pick up where it left off. Nil disables
	// checkpointing (the default; no I/O on the experiment path).
	Checkpoint *checkpoint.Store
	// Resume makes the experiments load completed units from
	// Checkpoint instead of re-running them. Because every unit is a pure
	// function of (Scale, unit index) and its accumulator serializes
	// exactly, a resumed run's output is byte-identical to an
	// uninterrupted one — Checkpoint's identity checks (seed, config
	// hash, RNG stream version) refuse units recorded under any other
	// configuration.
	Resume bool
	// Track, when non-nil, observes each executed work unit starting
	// (done=false) and durably finishing (done=true). cmd/experiments wires
	// it to the in-flight tracker behind the hard-kill aborted markers; it
	// never influences results and is excluded from the config hash.
	Track func(m checkpoint.Meta, done bool)
}

// engine returns the worker pool the experiment's trial shards execute on.
func (sc Scale) engine() *parexp.Engine { return parexp.New(sc.Workers) }

// FullScale approximates the paper's budgets. The attack search cap now
// matches the paper's 2^24 (which took it three weeks of gem5 time): with
// the search sharded across workers the cap is an overnight run instead of
// an out-of-reach one. The Equation 5 column still extrapolates for cells
// that fail under the cap.
func FullScale() Scale {
	return Scale{
		MonteCarloTrials: 100000,
		AttackMaxSamples: 1 << 24,
		AttackBatch:      1 << 15,
		Figure2Samples:   1 << 17,
		CBCBytes:         32 * 1024,
		SpecAccesses:     1_000_000,
		Seed:             1,
	}
}

// QuickScale produces the same qualitative shapes at a few percent of the
// cost; it is the scale the automated tests and benchmarks run at.
func QuickScale() Scale {
	return Scale{
		MonteCarloTrials: 20000,
		AttackMaxSamples: 1 << 15,
		AttackBatch:      1 << 13,
		Figure2Samples:   1 << 14,
		CBCBytes:         8 * 1024,
		SpecAccesses:     150_000,
		Seed:             1,
	}
}

// Experiment is a registry entry. Every experiment is one unit plan (see
// unitPlan), so Run honors cooperative cancellation between work units,
// Scale.Checkpoint and Scale.Resume, and reports each executed unit to
// Scale.Track; PlanFor hands the same plan to the multi-process fabric.
type Experiment struct {
	Name string
	// What the experiment reproduces.
	Description string
	Run         func(ctx context.Context, sc Scale) (*Table, error)
	plan        func(sc Scale) fabric.Plan
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		experiment("Figure2", "final-round collision attack timing characteristic chart", figure2Plan),
		experiment("Table3", "P1-P2 and measurements-to-success vs window size", table3Plan),
		experiment("Figure5", "storage channel capacity vs window size", figure5Plan),
		experiment("Figure6", "AES-CBC IPC across cache geometries and defenses", figure6Plan),
		experiment("Figure7", "AES-CBC IPC vs random fill window size", figure7Plan),
		experiment("Figure8", "SMT co-run throughput of SPEC-like programs next to AES", figure8Plan),
		experiment("Figure9", "spatial locality profiles Eff(d)", figure9Plan),
		experiment("Figure10", "L1 MPKI and IPC vs random fill window per benchmark", figure10Plan),
		experiment("Traffic", "L2/memory traffic increase for streaming benchmarks", trafficPlan),
		experiment("Prefetch", "tagged prefetcher vs random fill on streaming benchmarks", prefetchPlan),
		experiment("Defenses", "defense matrix: cache architectures vs attack classes (Section VIII)", defensesPlan),
		experiment("AblationWindowShape", "window direction: security signal vs streaming speedup", windowShapePlan),
		experiment("AblationFillQueue", "random fill queue depth", fillQueuePlan),
		experiment("AblationMissQueue", "miss queue (MSHR) entries", missQueueAblationPlan),
		experiment("AblationDropOnHit", "drop-if-present tag check", dropOnHitPlan),
		experiment("AblationL2RandomFill", "random fill at L1 only vs L1+L2", l2RandomFillPlan),
		experiment("Hierarchy3", "3-level hierarchy: which levels run random fill", hierarchy3Plan),
		experiment("ConstantTime", "constant-time defenses vs random fill on AES", constantTimePlan),
		experiment("InformingDoS", "informing-loads DoS amplification under an evicting co-runner", informingDoSPlan),
		experiment("AdaptiveWindow", "phase-adaptive window selection (the paper's future work)", adaptivePlan),
		experiment("Equation4", "analytical timing-channel model vs simulator (Eq. 4)", equation4Plan),
		experiment("MissQueueSecurity", "miss queue size vs collision attack cost (Section V.A)", missQueuePlan),
		experiment("OccupancyMatrix", "security x performance matrix: reuse and occupancy channels per secure cache design", occupancyPlan),
		experiment("PolicyMatrix", "replacement policy x design sweep: reuse/occupancy channels and AES IPC/MPKI per pair", policyPlan),
	}
}

// ByName finds a registered experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.Name, name) {
			return e, true
		}
	}
	return Experiment{}, false
}
