package sim

import (
	"runtime"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
	"randfill/internal/trace"
)

// TestResetMatchesNew: Reset(cfg) on a machine that ran another
// configuration leaves exactly the machine New(cfg) builds. Each case
// resets a machine that ran the previous case's configuration, with a
// tagged prefetcher attached, and replays one compiled trace on it and on
// New(cfg); machineState compares the thread result, the L1 counters, every
// lower level's traffic, cache counters and fill decisions, and the memory
// traffic. reuseL2 says whether the L2 store survives the reset: it does
// when the L2 geometry is unchanged, and is reallocated when it changes.
//
// Each case also acquires a machine from the pool, which holds the
// machines the previous case released after running its configuration
// (unless the pool dropped them, as -race does with some Puts). The replay
// on the acquired machine must equal the replay on New(cfg) too, and a
// released machine must hold nothing but its lower-level stores.
func TestResetMatchesNew(t *testing.T) {
	tr, reg := replayPinTrace()
	ct := trace.Compile(tr)

	tiny := tinyConfig()
	tiny.Seed = 7
	newcache := tiny
	newcache.L1Kind = KindNewcache
	plcache := tiny
	plcache.L1Kind = KindPLcache
	l2rf := tiny
	l2rf.Levels = []LevelConfig{{Geom: tiny.Levels[0].Geom, Window: rng.Window{A: 4, B: 3}}}
	three := tiny
	three.Levels = []LevelConfig{
		{Geom: tiny.Levels[0].Geom, HitLat: 12, Window: rng.Window{A: 8, B: 7}},
		{Geom: cache.Geometry{SizeBytes: 64 * 1024, Ways: 8}, HitLat: 40},
	}
	resized := tiny
	resized.Levels = []LevelConfig{{Geom: cache.Geometry{SizeBytes: 32 * 1024, Ways: 8}}}

	rf := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}
	cases := []struct {
		name    string
		cfg     Config
		tc      ThreadConfig
		reuseL2 bool
	}{
		{"sa", tiny, ThreadConfig{}, false}, // after "l2-resized"
		{"newcache", newcache, ThreadConfig{}, true},
		{"plcache-preload", plcache, ThreadConfig{Mode: ModePreload, SecretRegions: []mem.Region{reg}, Owner: 1}, true},
		{"randomfill", tiny, rf, true},
		{"l2window", l2rf, rf, true},
		{"three-level", three, rf, true},
		{"l2-resized", resized, ThreadConfig{}, false},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prev := cases[(i+len(cases)-1)%len(cases)]
			m := New(prev.cfg)
			m.Prefetcher = prefetch.NewTagged()
			m.RunTrace(prev.tc, ct)
			l2 := m.below[0]

			m.Reset(c.cfg)
			if reused := m.below[0] == l2; reused != c.reuseL2 {
				t.Errorf("L2 store reused = %v, want %v", reused, c.reuseL2)
			}
			got := machineState(m, m.RunTrace(c.tc, ct))
			fresh := New(c.cfg)
			want := machineState(fresh, fresh.RunTrace(c.tc, ct))
			if got != want {
				t.Errorf("reset machine diverges from a new one:\n reset %s\n new   %s", got, want)
			}

			pooled := Acquire(c.cfg)
			if got := machineState(pooled, pooled.RunTrace(c.tc, ct)); got != want {
				t.Errorf("acquired machine diverges from a new one:\n pooled %s\n new    %s", got, want)
			}
			pooled.Prefetcher = prefetch.NewTagged()
			for _, r := range []*Machine{pooled, m} {
				r.Release()
				checkReleased(t, r)
			}
		})
	}
}

// checkReleased fails t unless m, just released, keeps only its
// below-L1 stores and their level configs: no L1, hierarchy, root stream,
// threads or prefetcher.
func checkReleased(t *testing.T, m *Machine) {
	t.Helper()
	if m.hier != nil || m.root != nil || m.threads != nil || m.Prefetcher != nil {
		t.Errorf("released machine still holds hier %v, root %v, %d threads, prefetcher %v",
			m.hier != nil, m.root != nil, len(m.threads), m.Prefetcher != nil)
	}
	if len(m.below) == 0 || len(m.below) != len(m.cfg.Levels) {
		t.Errorf("released machine holds %d stores for %d levels, want the lower levels' stores", len(m.below), len(m.cfg.Levels))
	}
}

// TestReleaseTwicePanics: a released machine may be in the pool, so a
// second Release, which would hand it to two callers, panics.
func TestReleaseTwicePanics(t *testing.T) {
	m := New(tinyConfig())
	m.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	m.Release()
}

// TestResetAllocation pins what Reset is for: resetting a default machine
// clears its 2 MB L2 in place, so it allocates only the L1 and the small
// per-machine structures, while New also allocates the L2's 576 KiB.
func TestResetAllocation(t *testing.T) {
	const bound = 64 << 10
	cfg := DefaultConfig()
	m := New(cfg)
	bytesPerCall := func(f func()) uint64 {
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / n
	}
	reset := bytesPerCall(func() { m.Reset(cfg) })
	fresh := bytesPerCall(func() { m = New(cfg) })
	t.Logf("Reset allocates %d B, New %d B", reset, fresh)
	if reset >= bound {
		t.Errorf("Reset of a default machine allocates %d B, want < %d", reset, bound)
	}
	if fresh < bound {
		t.Errorf("New allocates %d B, under the Reset bound: the measurement sees no L2", fresh)
	}
}
