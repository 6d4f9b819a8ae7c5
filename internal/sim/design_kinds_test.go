package sim

import (
	"testing"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
)

// TestScatterAndMirageKinds: the two registry-backed L1 kinds run end to
// end on the simulator — deterministic per seed, demand-filling, and with
// working sets beyond one set's reach on the skewed/associative stores.
func TestScatterAndMirageKinds(t *testing.T) {
	for _, kind := range []CacheKind{"scattercache", "mirage"} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func(seed uint64) Result {
				cfg := tinyConfig()
				cfg.L1Kind = kind
				cfg.Seed = seed
				m := New(cfg)
				th := m.NewThread(ThreadConfig{})
				// Two passes over 8 lines (inside the 16-line L1): pass one
				// misses, pass two hits on a demand-fill design. Drain
				// between passes so second-pass accesses hit installed
				// lines instead of merging into in-flight misses.
				for pass := 0; pass < 2; pass++ {
					for i := 0; i < 8; i++ {
						th.Step(mem.Access{Addr: mem.AddrOf(mem.Line(i)), NonMem: 1})
					}
					th.Drain()
				}
				return th.Result()
			}
			res := run(3)
			// Every first-pass access misses; second-pass hits depend on
			// placement (the skewed cache may self-collide on 8 lines), but
			// a demand-fill design must retain most of the tiny working set.
			if res.Misses+res.Hits != 16 {
				t.Fatalf("misses %d + hits %d != 16 accesses", res.Misses, res.Hits)
			}
			if res.Misses < 8 || res.Hits < 6 {
				t.Fatalf("misses %d hits %d, want >= 8 cold misses and most of pass two hitting", res.Misses, res.Hits)
			}
			if again := run(3); again != res {
				t.Errorf("same seed diverged: %+v vs %+v", res, again)
			}
		})
	}
}

// TestBuildL1NewKinds: buildL1 constructs the right concrete types. An
// unknown kind never reaches it: Validate rejects it (TestValidate).
func TestBuildL1NewKinds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1 = cache.Geometry{SizeBytes: 4 * 1024, Ways: 4}
	cfg.L1Kind = "scattercache"
	if c := cfg.buildL1(rng.New(1)); c.NumLines() != 64 {
		t.Errorf("scattercache L1 has %d lines, want 64", c.NumLines())
	}
	cfg.L1Kind = "mirage"
	if c := cfg.buildL1(rng.New(1)); c.NumLines() != 64 {
		t.Errorf("mirage L1 has %d lines, want 64", c.NumLines())
	}
}
