package sim

import (
	"fmt"
	"testing"

	"randfill/internal/aes"
	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/trace"
	"randfill/internal/workloads"
)

// This file pins the compiled SMT co-run to the step-by-step interleave it
// replaced. refSMTPass below is that interleave, kept verbatim as the
// reference: the compiled smtPass must leave both threads, every cache level
// and the memory counters in exactly the state it does, and hand the
// measured pass the same background resume index.

// refSMTPass steps whichever thread is behind in simulated time, one access
// at a time (the background thread on ties), until the main thread has run
// its trace once; the background thread loops over its trace from index bi,
// which is returned for the next pass.
func refSMTPass(main, bg *Thread, mainTrace, bgTrace mem.Trace, bi int) int {
	mi := 0
	for mi < len(mainTrace) {
		if bg.cycle <= main.cycle && len(bgTrace) > 0 {
			bg.Step(bgTrace[bi])
			bi++
			if bi == len(bgTrace) {
				bi = 0
			}
			continue
		}
		main.Step(mainTrace[mi])
		mi++
	}
	main.Drain()
	return bi
}

// smtState is everything a steady co-run leaves observable: the background
// index carried out of the warm-up pass and out of the measured pass, the
// measured main result, the background thread's result, and the machine's
// per-level counters and memory traffic.
func smtState(m *Machine, main, bg *Thread, warm Result, warmBI, endBI int) string {
	return fmt.Sprintf("warmBI=%d endBI=%d bg=%+v main: %s",
		warmBI, endBI, bg.Result(), machineState(m, main.Result().Sub(warm)))
}

// smtCorunTraces returns a Figure 8 style pair: a SPEC-like main trace and
// a short AES enc+dec background trace that wraps several times per pass.
func smtCorunTraces(t *testing.T, bench string) (mainTrace, bgTrace mem.Trace) {
	g, ok := workloads.ByName(bench)
	if !ok {
		t.Fatalf("no benchmark %s", bench)
	}
	src := rng.New(29)
	var key, iv [16]byte
	src.Bytes(key[:])
	src.Bytes(iv[:])
	pt := make([]byte, 2*aes.BlockSize)
	src.Bytes(pt)
	cipher, err := aes.New(key[:])
	if err != nil {
		t.Fatal(err)
	}
	tracer := &aes.Tracer{Cipher: cipher, Layout: aes.DefaultLayout()}
	ct, enc, err := tracer.EncryptCBC(pt, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := tracer.DecryptCBC(ct, iv[:])
	if err != nil {
		t.Fatal(err)
	}
	return g.Gen(4000, 3), append(append(mem.Trace{}, enc...), dec...)
}

// withEscapes returns a copy of tr in which every 97th access overflows the
// packed word layout (alternately its non-memory count and its line
// number), so it compiles to an escape record.
func withEscapes(tr mem.Trace) mem.Trace {
	out := append(mem.Trace(nil), tr...)
	for i := 0; i < len(out); i += 97 {
		if i%2 == 0 {
			out[i].NonMem = 1 << 13
		} else {
			out[i].Addr |= 1 << 60
		}
	}
	return out
}

func instructions(tr mem.Trace) uint64 {
	n := uint64(0)
	for _, a := range tr {
		n += a.Instructions()
	}
	return n
}

func TestSMTCompiledMatchesStepInterleave(t *testing.T) {
	w := rng.Symmetric(32)
	tables := aes.DefaultLayout().AllTableRegions()
	designs := []struct {
		name string
		kind CacheKind
		bg   ThreadConfig
	}{
		{"baseline", KindSA, ThreadConfig{Owner: 1}},
		{"plcache-preload", KindPLcache, ThreadConfig{Mode: ModePreload, SecretRegions: tables, Owner: 1}},
		{"randomfill-sa", KindSA, ThreadConfig{Mode: ModeRandomFill, Window: w, Owner: 1}},
		{"newcache", KindNewcache, ThreadConfig{Owner: 1}},
		{"randomfill-newcache", KindNewcache, ThreadConfig{Mode: ModeRandomFill, Window: w, Owner: 1}},
	}
	geoms := []cache.Geometry{
		{SizeBytes: 16 * 1024, Ways: 1},
		{SizeBytes: 32 * 1024, Ways: 4},
	}
	sjengMain, aesBG := smtCorunTraces(t, "sjeng")
	astarMain, _ := smtCorunTraces(t, "astar")
	traces := []struct {
		name     string
		main, bg mem.Trace
	}{
		{"sjeng", sjengMain, aesBG},
		{"astar", astarMain, aesBG},
		{"escapes", withEscapes(sjengMain), withEscapes(aesBG)},
		{"empty-bg", sjengMain, nil},
	}
	mainTC := ThreadConfig{Owner: 0}

	for _, g := range geoms {
		for _, d := range designs {
			for _, tr := range traces {
				t.Run(fmt.Sprintf("%s/%s/%s", g, d.name, tr.name), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.L1 = g
					cfg.L1Kind = d.kind
					cfg.Seed = 5

					ref := New(cfg)
					rm, rb := ref.NewThread(mainTC), ref.NewThread(d.bg)
					rWarmBI := refSMTPass(rm, rb, tr.main, tr.bg, 0)
					rWarm := rm.Result()
					rEndBI := refSMTPass(rm, rb, tr.main, tr.bg, rWarmBI)
					want := smtState(ref, rm, rb, rWarm, rWarmBI, rEndBI)
					if tr.bg != nil && rb.Result().Instructions <= instructions(tr.bg) {
						t.Fatal("background trace never wrapped: the pin would not cover the carried index")
					}

					got := New(cfg)
					gm, gb := got.NewThread(mainTC), got.NewThread(d.bg)
					mainCT, bgCT := trace.Compile(tr.main), trace.Compile(tr.bg)
					gWarmBI := got.smtPass(gm, gb, mainCT, bgCT, 0)
					gWarm := gm.Result()
					gEndBI := got.smtPass(gm, gb, mainCT, bgCT, gWarmBI)
					if s := smtState(got, gm, gb, gWarm, gWarmBI, gEndBI); s != want {
						t.Fatalf("compiled co-run diverges from the step interleave:\n compiled %s\n stepped  %s", s, want)
					}

					// The mem.Trace entry points are wrappers over the
					// compiled ones.
					if r := New(cfg).RunSMTSteadyCompiled(mainTC, trace.Compile(tr.main), d.bg, trace.Compile(tr.bg)); r != rm.Result().Sub(rWarm) {
						t.Errorf("RunSMTSteadyCompiled = %+v, want %+v", r, rm.Result().Sub(rWarm))
					}
					once := New(cfg)
					om, ob := once.NewThread(mainTC), once.NewThread(d.bg)
					refSMTPass(om, ob, tr.main, tr.bg, 0)
					if r := New(cfg).RunSMT(mainTC, tr.main, d.bg, tr.bg); r != om.Result() {
						t.Errorf("RunSMT = %+v, want %+v", r, om.Result())
					}
				})
			}
		}
	}
}
