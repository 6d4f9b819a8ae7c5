package attacks

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"randfill/internal/parexp"
	"randfill/internal/sim"
)

// collectBytes collects n samples on a, releases its machine, and returns
// the bytes of its CollisionStats.
func collectBytes(t *testing.T, a *Collision, n int) []byte {
	t.Helper()
	a.Collect(n)
	a.Release()
	data, err := a.Stats().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestNewShardMatchesNewShards: NewShard(cfg, s) builds exactly shard s of
// NewShards' plan, with a drawn key and with a given one: the two collect
// byte-identical CollisionStats.
func TestNewShardMatchesNewShards(t *testing.T) {
	for _, cfg := range []CollisionConfig{
		{Sim: sim.AttackerConfig(), Seed: 5},
		{Sim: sim.AttackerConfig(), Seed: 6, Key: []byte("0123456789abcdef")},
	} {
		for s, want := range NewShards(cfg, parexp.Shards) {
			if got := NewShard(cfg, s); !bytes.Equal(collectBytes(t, got, 24), collectBytes(t, want, 24)) {
				t.Errorf("seed %d shard %d: NewShard collects other stats than NewShards", cfg.Seed, s)
			}
		}
	}
}

// TestCollectAfterReleasePanics: a released attack has no machine to
// measure on, while its stats stay readable.
func TestCollectAfterReleasePanics(t *testing.T) {
	a := NewCollision(CollisionConfig{Sim: sim.AttackerConfig(), Seed: 2})
	a.Collect(3)
	a.Release()
	a.Release() // a second Release does nothing
	if a.Samples() != 3 {
		t.Errorf("released attack reports %d samples, want 3", a.Samples())
	}
	defer func() {
		if recover() == nil {
			t.Error("Collect after Release did not panic")
		}
	}()
	a.Collect(1)
}

// pooledRun is one tiny sharded search plus the merged CollisionStats of
// one collection round over the same shard plan, both on pooled machines.
type pooledRun struct {
	res   SearchResult
	stats string
}

func runPooled(t *testing.T, cfg CollisionConfig) pooledRun {
	t.Helper()
	res, err := MeasurementsToSuccessShardedCtx(context.Background(), parexp.New(2), cfg, 64, 128, parexp.Shards)
	if err != nil {
		t.Fatal(err)
	}
	atks := NewShards(cfg, parexp.Shards)
	for _, a := range atks {
		a.Collect(16)
		a.Release()
	}
	data, err := MergeShardStats(atks).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return pooledRun{res, string(data)}
}

// TestShardedSearchOnRecycledMachines: search A, then search B on another
// L1 kind and miss-queue size, then A again on the machines B released.
// Which machine a shard gets cannot change a byte: both A runs return the
// same result and the same CollisionStats bytes.
func TestShardedSearchOnRecycledMachines(t *testing.T) {
	a := CollisionConfig{Sim: sim.AttackerConfig(), Seed: 1}
	b := a
	b.Sim.L1Kind = sim.KindNewcache
	b.Sim.MissQueue = 4
	first := runPooled(t, a)
	runPooled(t, b)
	if again := runPooled(t, a); again != first {
		t.Errorf("search on recycled machines differs: result %+v, want %+v; stats equal %v",
			again.res, first.res, again.stats == first.stats)
	}
}

// raceBuild reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts on purpose.
func raceBuild() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestShardedSearchRecyclesMachines pins what the pool is for: the second
// of two identical searches takes its shards' machines, with their 576 KiB
// L2 arrays, from the pool, so it allocates less than one L2 per shard.
// Under -race sync.Pool drops Puts on purpose, so the pin is skipped.
func TestShardedSearchRecyclesMachines(t *testing.T) {
	if raceBuild() {
		t.Skip("sync.Pool drops a quarter of Puts under -race")
	}
	const l2Bytes = 576 << 10
	search := func() {
		cfg := CollisionConfig{Sim: sim.AttackerConfig(), Seed: 1}
		if _, err := MeasurementsToSuccessShardedCtx(context.Background(), parexp.New(1), cfg, 64, 128, parexp.Shards); err != nil {
			t.Fatal(err)
		}
	}
	search()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	search()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second search allocates %d B (%d shards, %d B per L2)", got, parexp.Shards, l2Bytes)
	if got >= parexp.Shards*l2Bytes {
		t.Errorf("second search allocates %d B, want < %d: its shards did not reuse the released L2s", got, parexp.Shards*l2Bytes)
	}
}
