// Package integration holds cross-module end-to-end tests: every victim
// program (AES, Blowfish, modular exponentiation) against every relevant
// defense, plus serialization/replay equivalence between the trace tooling
// and the simulator.
package integration

import (
	"bytes"
	"math/big"
	"testing"

	"randfill/internal/aes"
	"randfill/internal/attacks"
	"randfill/internal/blowfish"
	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/modexp"
	"randfill/internal/newcache"
	"randfill/internal/rng"
	"randfill/internal/rpcache"
	"randfill/internal/sim"
	"randfill/internal/trace"
	"randfill/internal/traceio"
)

func sa32k(src *rng.Source) cache.Cache {
	return cache.NewSetAssoc(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, cache.LRU{})
}

// TestFlushReloadMatrixAcrossVictims runs the reuse based storage-channel
// attack against the security-critical region of each victim program, on
// demand fetch (broken) and with a covering random fill window (defended).
func TestFlushReloadMatrixAcrossVictims(t *testing.T) {
	victims := []struct {
		name   string
		region mem.Region
	}{
		{"aes-T4", aes.DefaultLayout().TableRegion(aes.TableTe4)},
		{"blowfish-S0", blowfish.DefaultLayout().SBoxRegion(0)},
		{"modexp-table", modexp.DefaultLayout().TableRegion(16)},
	}
	for _, v := range victims {
		m := v.region.NumLines()
		broken := attacks.FlushReload(attacks.FlushReloadConfig{
			NewCache: sa32k,
			Window:   rng.Window{},
			Region:   v.region,
			Trials:   1500,
			Seed:     1,
		})
		if broken.Accuracy != 1 {
			t.Errorf("%s: demand fetch accuracy %v, want 1", v.name, broken.Accuracy)
		}
		defended := attacks.FlushReload(attacks.FlushReloadConfig{
			NewCache: sa32k,
			Window:   rng.Symmetric(2 * m),
			Region:   v.region,
			Trials:   4000,
			Seed:     2,
		})
		if defended.Accuracy > 2.5/float64(2*m) {
			t.Errorf("%s: defended accuracy %v, want ≈ 1/%d", v.name, defended.Accuracy, 2*m)
		}
		if defended.MutualInfo > broken.MutualInfo/4 {
			t.Errorf("%s: MI only fell from %v to %v bits", v.name,
				broken.MutualInfo, defended.MutualInfo)
		}
	}
}

// TestTraceSerializeReplayEquivalence checks that a serialized+replayed
// trace produces bit-identical simulator results.
func TestTraceSerializeReplayEquivalence(t *testing.T) {
	src := rng.New(5)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, 2048)
	src.Bytes(pt)
	c, err := aes.New(key[:])
	if err != nil {
		t.Fatal(err)
	}
	tracer := &aes.Tracer{Cipher: c, Layout: aes.DefaultLayout()}
	_, recorded, err := tracer.EncryptCBC(pt, iv[:])
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := traceio.Write(&buf, recorded); err != nil {
		t.Fatal(err)
	}
	replayed, err := traceio.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	run := func(tr mem.Trace) sim.Result {
		cfg := sim.DefaultConfig()
		cfg.Seed = 9
		return sim.New(cfg).RunTrace(sim.ThreadConfig{
			Mode: sim.ModeRandomFill, Window: rng.Window{A: 16, B: 15},
		}, trace.Compile(tr))
	}
	a, b := run(recorded), run(replayed)
	if a != b {
		t.Errorf("replayed trace diverged:\n%+v\n%+v", a, b)
	}
}

// TestDefenseCompositionEndToEnd verifies the paper's final claim on a
// single shared configuration: random fill over Newcache (with per-domain
// remapping) resists both the reuse channel and the contention channel at
// once, for the AES table region.
func TestDefenseCompositionEndToEnd(t *testing.T) {
	region := aes.DefaultLayout().TableRegion(aes.TableTe4)
	mkNC := func(src *rng.Source) cache.Cache { return newcache.New(32*1024, 4, src) }
	mkRP := func(src *rng.Source) cache.Cache {
		return rpcache.NewWithPolicy(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, src, nil)
	}
	for _, tc := range []struct {
		name string
		mk   func(src *rng.Source) cache.Cache
	}{
		{"rf+newcache", mkNC},
		{"rf+rpcache", mkRP},
	} {
		name, mk := tc.name, tc.mk
		fr := attacks.FlushReload(attacks.FlushReloadConfig{
			NewCache: mk,
			Window:   rng.Symmetric(32),
			Region:   region,
			Trials:   4000,
			Seed:     3,
		})
		if fr.Accuracy > 0.1 {
			t.Errorf("%s: reuse channel open (accuracy %v)", name, fr.Accuracy)
		}
		pp := attacks.PrimeProbe(attacks.PrimeProbeConfig{
			NewCache:     mk,
			Sets:         128,
			Ways:         4,
			Window:       rng.Symmetric(32),
			VictimRegion: region,
			AttackerBase: 0x100000,
			Trials:       300,
			Seed:         4,
		})
		if pp.ExactAccuracy > 0.2 {
			t.Errorf("%s: contention channel open (accuracy %v)", name, pp.ExactAccuracy)
		}
	}
}

// TestModexpSpyAcrossCaches runs the Percival attack against each cache
// architecture under demand fetch: the reuse channel is architecture-
// independent, exactly the paper's point about prior secure caches.
func TestModexpSpyAcrossCaches(t *testing.T) {
	mod, _ := new(big.Int).SetString("340282366920938463463374607431768211507", 10)
	e, err := modexp.New(big.NewInt(7), mod, 4)
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := new(big.Int).SetString("0123456789ABCDEF0123456789ABCDEF", 16)
	caches := []struct {
		name string
		mk   func(src *rng.Source) cache.Cache
	}{
		{"sa", sa32k},
		{"newcache", func(src *rng.Source) cache.Cache { return newcache.New(32*1024, 4, src) }},
		{"rpcache", func(src *rng.Source) cache.Cache {
			return rpcache.NewWithPolicy(cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, src, nil)
		}},
	}
	for _, tc := range caches {
		name, mk := tc.name, tc.mk
		res := modexp.Spy(e, secret, modexp.DefaultLayout(), mk, rng.Window{}, 1)
		if res.Recovered.Cmp(secret) != 0 {
			t.Errorf("%s: reuse attack failed to recover the exponent (%d/%d windows) — demand fetch should leak on every architecture",
				name, res.CorrectWindows, res.Windows)
		}
	}
}

// TestSystemCallMidRunReconfiguration models the paper's usage pattern: the
// window is enabled before the cryptographic routine and disabled after,
// via set_RR, on a live thread.
func TestSystemCallMidRunReconfiguration(t *testing.T) {
	m := sim.New(sim.Config{Seed: 1})
	th := m.NewThread(sim.ThreadConfig{})

	// Phase 1: ordinary demand-fetch execution.
	th.Step(mem.Access{Addr: 0x5000})
	th.Drain()
	if !m.L1().Probe(mem.LineOf(0x5000)) {
		t.Fatal("demand phase did not fill")
	}

	// set_RR(16, 15): enter the cryptographic routine.
	th.Engine().SetRR(16, 15)
	th.Step(mem.Access{Addr: 0x90000, Secret: true})
	th.Drain()
	if m.L1().Probe(mem.LineOf(0x90000)) {
		// Possible only by the 1/32 self-fill draw; retry with
		// different lines to confirm the policy switched.
		misses := 0
		for i := 1; i <= 8; i++ {
			a := mem.Addr(0x90000 + i*0x1000)
			th.Step(mem.Access{Addr: a, Secret: true})
			th.Drain()
			if !m.L1().Probe(mem.LineOf(a)) {
				misses++
			}
		}
		if misses < 6 {
			t.Fatal("window did not take effect mid-run")
		}
	}

	// set_RR(0, 0): leave the routine; demand fetch resumes.
	th.Engine().SetRR(0, 0)
	th.Step(mem.Access{Addr: 0xA0000})
	th.Drain()
	if !m.L1().Probe(mem.LineOf(0xA0000)) {
		t.Fatal("demand fetch did not resume after set_RR(0,0)")
	}
}
