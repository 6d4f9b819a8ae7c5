// Package experiments regenerates every table and figure of the paper's
// evaluation: one function per experiment, each returning a formatted Table
// whose rows mirror what the paper reports. cmd/experiments drives them from
// the command line and bench_test.go wraps them as benchmarks.
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
	// Checkpoint, when non-nil, makes the resumable experiments flush each
	// completed work unit through the store the moment it finishes, so an
	// interrupted run can pick up where it left off. Nil disables
	// checkpointing (the default; no I/O on the experiment path).
	Checkpoint *checkpoint.Store
	// Resume makes the resumable experiments load completed units from
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

// Experiment is a registry entry. Run honors cooperative cancellation: a
// cancelled or expired ctx stops the experiment between work units and
// surfaces ctx's error. The resumable experiments (Figure2, Table3,
// MissQueueSecurity, OccupancyMatrix, PolicyMatrix — the long-running attack
// searches and sweeps) additionally honor Scale.Checkpoint and Scale.Resume;
// the rest
// check ctx at unit boundaries only and never touch the checkpoint store.
type Experiment struct {
	Name string
	// What the experiment reproduces.
	Description string
	Run         func(ctx context.Context, sc Scale) (*Table, error)
}

// plain adapts a non-resumable experiment to the registry's context-aware
// signature. These experiments run in one piece, so cancellation is honored
// only before the run starts; checkpoint settings are ignored.
func plain(f func(Scale) *Table) func(context.Context, Scale) (*Table, error) {
	return func(ctx context.Context, sc Scale) (*Table, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return f(sc), nil
	}
}

// All returns the experiment registry in paper order.
func All() []Experiment {
	return []Experiment{
		{"Figure2", "final-round collision attack timing characteristic chart", Figure2Ctx},
		{"Table3", "P1-P2 and measurements-to-success vs window size", Table3Ctx},
		{"Figure5", "storage channel capacity vs window size", plain(func(Scale) *Table { return Figure5() })},
		{"Figure6", "AES-CBC IPC across cache geometries and defenses", plain(Figure6)},
		{"Figure7", "AES-CBC IPC vs random fill window size", plain(Figure7)},
		{"Figure8", "SMT co-run throughput of SPEC-like programs next to AES", plain(Figure8)},
		{"Figure9", "spatial locality profiles Eff(d)", plain(Figure9)},
		{"Figure10", "L1 MPKI and IPC vs random fill window per benchmark", plain(Figure10)},
		{"Traffic", "L2/memory traffic increase for streaming benchmarks", plain(Traffic)},
		{"Prefetch", "tagged prefetcher vs random fill on streaming benchmarks", plain(PrefetchComparison)},
		{"Defenses", "defense matrix: cache architectures vs attack classes (Section VIII)", plain(DefenseMatrix)},
		{"AblationWindowShape", "window direction: security signal vs streaming speedup", plain(AblationWindowShape)},
		{"AblationFillQueue", "random fill queue depth", plain(AblationFillQueue)},
		{"AblationMissQueue", "miss queue (MSHR) entries", plain(AblationMissQueue)},
		{"AblationDropOnHit", "drop-if-present tag check", plain(AblationDropOnHit)},
		{"AblationL2RandomFill", "random fill at L1 only vs L1+L2", plain(AblationL2RandomFill)},
		{"Hierarchy3", "3-level hierarchy: which levels run random fill", plain(Hierarchy3)},
		{"ConstantTime", "constant-time defenses vs random fill on AES", plain(ConstantTime)},
		{"InformingDoS", "informing-loads DoS amplification under an evicting co-runner", plain(InformingDoS)},
		{"AdaptiveWindow", "phase-adaptive window selection (the paper's future work)", plain(AdaptiveWindow)},
		{"Equation4", "analytical timing-channel model vs simulator (Eq. 4)", plain(Equation4)},
		{"MissQueueSecurity", "miss queue size vs collision attack cost (Section V.A)", MissQueueSecurityCtx},
		{"OccupancyMatrix", "security x performance matrix: reuse and occupancy channels per secure cache design", OccupancyMatrixCtx},
		{"PolicyMatrix", "replacement policy x design sweep: reuse/occupancy channels and AES IPC/MPKI per pair", PolicyMatrixCtx},
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
