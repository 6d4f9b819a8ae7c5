package sim

import (
	"fmt"
	"math"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/prefetch"
	"randfill/internal/rng"
)

// checkMissQueue fails unless the thread's miss-queue bookkeeping matches a
// recount of its entries: inflight valid entries, earliest the smallest
// done among them (+Inf when none), background those that are background
// fills. It returns the recounted background entries.
func checkMissQueue(t *testing.T, th *Thread, where string) int {
	t.Helper()
	n, bg, earliest := 0, 0, math.Inf(1)
	for _, e := range th.mshr {
		if !e.valid {
			continue
		}
		n++
		if e.background {
			bg++
		}
		earliest = math.Min(earliest, e.done)
	}
	if th.inflight != n || th.background != bg || th.earliest != earliest {
		t.Fatalf("%s: inflight %d, background %d, earliest %v; recount gives %d, %d, %v",
			where, th.inflight, th.background, th.earliest, n, bg, earliest)
	}
	return bg
}

// TestMissQueueBookkeeping replays a randomized trace under every fill mode
// that issues miss-queue entries, with one, two and four entries and with a
// prefetcher attached, and recounts the queue after every access and after
// the final Drain.
func TestMissQueueBookkeeping(t *testing.T) {
	tr, reg := replayPinTrace()
	rf := ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 8, B: 7}}
	cases := []struct {
		name     string
		kind     CacheKind
		tc       ThreadConfig
		prefetch bool
	}{
		{name: "demand", kind: KindSA, tc: ThreadConfig{}},
		{name: "randomfill", kind: KindSA, tc: rf},
		{name: "disable-secret", kind: KindSA, tc: ThreadConfig{Mode: ModeDisableSecret}},
		{name: "informing", kind: KindSA, tc: ThreadConfig{Mode: ModeInforming, SecretRegions: []mem.Region{reg}}},
		{name: "preload", kind: KindPLcache, tc: ThreadConfig{Mode: ModePreload, SecretRegions: []mem.Region{reg}}},
		{name: "demand+prefetch", kind: KindSA, tc: ThreadConfig{}, prefetch: true},
		{name: "randomfill+prefetch", kind: KindSA, tc: rf, prefetch: true},
	}
	background := 0
	for _, c := range cases {
		for _, mq := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/mq%d", c.name, mq)
			cfg := DefaultConfig()
			cfg.L1 = cache.Geometry{SizeBytes: 1024, Ways: 2}
			cfg.Levels[0].Geom = cache.Geometry{SizeBytes: 16 * 1024, Ways: 4}
			cfg.L1Kind = c.kind
			cfg.MissQueue = mq
			cfg.Seed = uint64(mq)
			m := New(cfg)
			if c.prefetch {
				m.Prefetcher = prefetch.NewTagged()
			}
			th := m.NewThread(c.tc)
			checkMissQueue(t, th, name+" start")
			for i, a := range tr {
				th.Step(a)
				background += checkMissQueue(t, th, fmt.Sprintf("%s access %d", name, i))
			}
			th.Drain()
			checkMissQueue(t, th, name+" drained")
		}
	}
	if background == 0 {
		t.Fatal("no background fill was ever in flight")
	}
}
