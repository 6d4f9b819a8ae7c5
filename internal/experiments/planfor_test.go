package experiments

import (
	"bytes"
	"context"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"randfill/internal/attacks"
	"randfill/internal/checkpoint"
	"randfill/internal/infotheory"
)

// TestPlanForCoversEveryExperiment: every registered experiment has a
// plan with sane identities, found case-insensitively like ByName.
func TestPlanForCoversEveryExperiment(t *testing.T) {
	sc := tinyScale()
	for _, e := range All() {
		p, ok := PlanFor(strings.ToLower(e.Name), sc)
		if !ok {
			t.Errorf("PlanFor(%q) = false, want a plan", e.Name)
			continue
		}
		if p.Name != e.Name || p.Units <= 0 {
			t.Errorf("PlanFor(%q) = {Name:%q Units:%d}", e.Name, p.Name, p.Units)
		}
		hash := sc.configHash(e.Name)
		for i := 0; i < p.Units; i++ {
			m := p.Meta(i)
			if m.Experiment != e.Name || m.Shard != i || m.ConfigHash != hash {
				t.Errorf("%s unit %d meta = %+v", e.Name, i, m)
			}
		}
	}
	if _, ok := PlanFor("NoSuchExperiment", sc); ok {
		t.Error("PlanFor returned a plan for an unregistered name")
	}
}

// TestEveryExperimentResumes: each experiment checkpoints one frame per
// unit, and a resume pass over the full store re-runs no unit and renders
// the same bytes.
func TestEveryExperimentResumes(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			p, _ := PlanFor(e.Name, tinyScale())
			var executed atomic.Int64
			sc := tinyScale()
			sc.Track = func(_ checkpoint.Meta, done bool) {
				if done {
					executed.Add(1)
				}
			}
			st, h := openStore(t, t.TempDir())
			sc.Checkpoint = st
			want := mustRun(t, e, sc)
			if h.count() != p.Units || int(executed.Load()) != p.Units {
				t.Fatalf("first pass wrote %d checkpoints and ran %d units, want %d each",
					h.count(), executed.Load(), p.Units)
			}

			st2, h2 := openStore(t, st.Dir())
			sc.Checkpoint, sc.Resume = st2, true
			executed.Store(0)
			if got := mustRun(t, e, sc); got != want {
				t.Fatalf("resumed render differs\n--- resumed ---\n%s--- first ---\n%s", got, want)
			}
			if h2.count() != 0 || executed.Load() != 0 {
				t.Fatalf("resume pass wrote %d checkpoints and ran %d units, want 0", h2.count(), executed.Load())
			}
		})
	}
}

// TestUnitCodecExact: the unit codec round-trips every float64 bit pattern
// (NaN payloads, -0, ±Inf) and the integer and bool fields of a Table III
// cell, encodes a value to the same bytes every time, and rejects a payload
// that is short or carries trailing bytes.
func TestUnitCodecExact(t *testing.T) {
	floats := [4]float64{
		math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
		math.Copysign(0, -1),
		math.Inf(1),
		math.Inf(-1),
	}
	data, err := encodeUnit(floats)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := encodeUnit(floats)
	if !bytes.Equal(data, again) {
		t.Fatal("encoding the same value twice gave different bytes")
	}
	got, err := decodeUnit[[4]float64](data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range floats {
		if math.Float64bits(got[i]) != math.Float64bits(floats[i]) {
			t.Errorf("float %d: decoded bits %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(floats[i]))
		}
	}

	for _, c := range []t3cell{
		{},
		{
			MC:  infotheory.P1P2Result{P1: 0.5, P2: 0.25, CollisionPairs: 1234, NoCollisionPairs: 98765, P1Hits: 617, P2Hits: 24691},
			Res: attacks.SearchResult{Measurements: 1 << 40, Success: true, CorrectPairs: -1, SigmaT: 3.25},
		},
	} {
		data, err := encodeUnit(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := decodeUnit[t3cell](data); err != nil || got != c {
			t.Fatalf("t3cell round trip: got %+v, %v; want %+v", got, err, c)
		}
		for _, bad := range [][]byte{nil, data[:len(data)-1], append(append([]byte{}, data...), 0)} {
			if _, err := decodeUnit[t3cell](bad); err == nil {
				t.Errorf("decoded a %d-byte payload; the encoding is %d bytes", len(bad), len(data))
			}
		}
	}
}

// TestPlanForUnitsMatchInProcessRun: executing units through the plan's
// RunUnit (the fabric worker's path) writes checkpoints byte-identical to
// the ones the in-process runShards driver writes — the invariant the whole
// distributed fabric's correctness rests on.
func TestPlanForUnitsMatchInProcessRun(t *testing.T) {
	for _, name := range []string{"Figure2", "OccupancyMatrix"} {
		t.Run(name, func(t *testing.T) {
			sc := tinyScale()
			e, ok := ByName(name)
			if !ok {
				t.Fatal("experiment not registered")
			}

			// In-process checkpointing run.
			soloDir := t.TempDir()
			soloStore, _ := openStore(t, soloDir)
			scSolo := sc
			scSolo.Checkpoint = soloStore
			if _, err := e.Run(context.Background(), scSolo); err != nil {
				t.Fatal(err)
			}

			// Unit-at-a-time run through the exported plan.
			plan, ok := PlanFor(name, sc)
			if !ok {
				t.Fatal("no plan")
			}
			planDir := t.TempDir()
			planStore, _ := openStore(t, planDir)
			for i := 0; i < plan.Units; i++ {
				if err := plan.RunUnit(context.Background(), i, planStore); err != nil {
					t.Fatalf("unit %d: %v", i, err)
				}
			}

			soloFiles, planFiles := ckptFiles(t, soloDir), ckptFiles(t, planDir)
			if len(soloFiles) != plan.Units || len(planFiles) != plan.Units {
				t.Fatalf("file counts: solo %d, plan %d, want %d", len(soloFiles), len(planFiles), plan.Units)
			}
			for i := 0; i < plan.Units; i++ {
				m := plan.Meta(i)
				want, err := os.ReadFile(soloStore.Path(m))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(planStore.Path(m))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("unit %d: plan-run checkpoint differs from in-process run", i)
				}
			}
		})
	}
}

// TestTrackObservesExecutedUnitsOnly: the Track hook sees each executed
// unit start and finish, and stays silent for restored units.
func TestTrackObservesExecutedUnitsOnly(t *testing.T) {
	sc := tinyScale()
	dir := t.TempDir()
	st, _ := openStore(t, dir)
	sc.Checkpoint = st

	type obs struct {
		m    checkpoint.Meta
		done bool
	}
	var mu sync.Mutex
	var seen []obs
	sc.Track = func(m checkpoint.Meta, done bool) {
		mu.Lock()
		seen = append(seen, obs{m, done})
		mu.Unlock()
	}
	e, _ := ByName("Figure2")
	if _, err := e.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	starts, finishes := 0, 0
	for _, o := range seen {
		if o.m.Experiment != "Figure2" {
			t.Errorf("tracked foreign unit %+v", o.m)
		}
		if o.done {
			finishes++
		} else {
			starts++
		}
	}
	if starts != 8 || finishes != 8 {
		t.Fatalf("tracked %d starts, %d finishes; want 8 each", starts, finishes)
	}

	// A fully-restored resume run executes nothing and tracks nothing.
	seen = nil
	sc.Resume = true
	if _, err := e.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 0 {
		t.Fatalf("restored run tracked %d events, want 0", len(seen))
	}
}
