package attacks

import (
	"math"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/nomo"
	"randfill/internal/rng"
	"randfill/internal/rpcache"
)

func rp32k(src *rng.Source) cache.Cache {
	return rpcache.NewWithPolicy(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, src, nil)
}

func nomo32k(src *rng.Source) cache.Cache {
	return nomo.NewWithPolicy(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, 2, 1, nil)
}

func TestPrimeProbeDefeatedByRPcache(t *testing.T) {
	// RPcache deflects cross-domain evictions to random sets and swaps
	// the permutation, so the attacker's observed eviction set carries
	// no information about the victim's address.
	res := PrimeProbe(PrimeProbeConfig{
		NewCache:     rp32k,
		Sets:         128,
		Ways:         4,
		Window:       rng.Window{},
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       400,
		Seed:         5,
	})
	if res.ExactAccuracy > 0.2 {
		t.Errorf("prime-probe accuracy %v against RPcache, want ≈ chance", res.ExactAccuracy)
	}
}

func TestPrimeProbeDefeatedByNoMo(t *testing.T) {
	// NoMo reserves ways per thread: the victim's fill lands in its own
	// reserved way instead of evicting the attacker's prime data, so the
	// probe sees nothing.
	res := PrimeProbe(PrimeProbeConfig{
		NewCache:     nomo32k,
		Sets:         128,
		Ways:         4,
		Window:       rng.Window{},
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       400,
		Seed:         6,
	})
	if res.ExactAccuracy > 0.1 {
		t.Errorf("prime-probe accuracy %v against NoMo, want ≈ 0", res.ExactAccuracy)
	}
}

func TestFlushReloadStillBreaksRPcacheAndNoMo(t *testing.T) {
	// The paper's central argument: partitioning- and randomization-
	// based secure caches only target contention; a reuse based attack
	// (Flush-Reload) works against them exactly as against the SA cache,
	// because they still demand-fetch.
	for _, tc := range []struct {
		name string
		mk   func(src *rng.Source) cache.Cache
	}{
		{"rpcache", rp32k},
		{"nomo", nomo32k},
	} {
		name, mk := tc.name, tc.mk
		res := FlushReload(FlushReloadConfig{
			NewCache: mk,
			Window:   rng.Window{}, // demand fetch
			Region:   table(),
			Trials:   2000,
			Seed:     7,
		})
		if res.Accuracy != 1 {
			t.Errorf("%s: flush-reload accuracy %v, want 1 (reuse attacks unaffected)",
				name, res.Accuracy)
		}
		if res.MutualInfo < 3.9 {
			t.Errorf("%s: MI %v bits, want ≈ 4", name, res.MutualInfo)
		}
	}
}

func TestRandomFillOnRPcacheClosesBothChannels(t *testing.T) {
	// The composition the paper proposes: a randomization-based secure
	// cache for contention attacks + random fill for reuse attacks.
	pp := PrimeProbe(PrimeProbeConfig{
		NewCache:     rp32k,
		Sets:         128,
		Ways:         4,
		Window:       rng.Symmetric(32),
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       300,
		Seed:         8,
	})
	if pp.ExactAccuracy > 0.2 {
		t.Errorf("prime-probe accuracy %v on RF+RPcache", pp.ExactAccuracy)
	}
	fr := FlushReload(FlushReloadConfig{
		NewCache: rp32k,
		Window:   rng.Symmetric(32),
		Region:   table(),
		Trials:   8000,
		Seed:     9,
	})
	if fr.Accuracy > 0.1 {
		t.Errorf("flush-reload accuracy %v on RF+RPcache, want ≈ 1/32", fr.Accuracy)
	}
	if fr.MutualInfo > 1.0 {
		t.Errorf("flush-reload MI %v bits on RF+RPcache", fr.MutualInfo)
	}
}

func TestEvictTimeDefeatedByRPcache(t *testing.T) {
	res := EvictTime(EvictTimeConfig{
		NewCache:     rp32k,
		Sets:         128,
		Ways:         4,
		TargetSet:    int(table().FirstLine()) & 127,
		Window:       rng.Window{},
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       3000,
		Seed:         10,
	})
	if math.Abs(res.Signal) > 2.5 {
		t.Errorf("evict-time signal %v against RPcache, want ≈ 0", res.Signal)
	}
}

func TestEvictTimeDefeatedByNoMo(t *testing.T) {
	res := EvictTime(EvictTimeConfig{
		NewCache:     nomo32k,
		Sets:         128,
		Ways:         4,
		TargetSet:    int(table().FirstLine()) & 127,
		Window:       rng.Window{},
		VictimRegion: table(),
		AttackerBase: 0x100000,
		Trials:       3000,
		Seed:         11,
	})
	// The victim's table lives in its reserved + shared ways; the
	// attacker evicting the shared pool can still cause some victim
	// misses, but far weaker than on the SA cache (signal ≈ 10 there).
	if math.Abs(res.Signal) > 5 {
		t.Errorf("evict-time signal %v against NoMo", res.Signal)
	}
}
