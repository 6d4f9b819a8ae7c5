package attacks

import (
	"bytes"
	"fmt"
	"testing"

	"randfill/internal/aes"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/sim"
	"randfill/internal/trace"
)

// TestBlockTemplateMatchesTrace pins the patched block template to the
// trace it replaces: after each sample's encrypt, the compiled block must
// equal the compiled aes.Tracer trace of the same encryption word for word,
// decode to the same access at every index, and come with the same
// ciphertext. NonMem 5000 overflows the packed layout, so every record of
// that trace is an escape.
func TestBlockTemplateMatchesTrace(t *testing.T) {
	src := rng.New(0x7e3b)
	for _, opts := range []aes.TraceOpts{
		{}, {StackPerLookup: 1}, {StackPerLookup: 5}, {NonMem: 7}, {NonMem: 5000},
	} {
		for k := 0; k < 3; k++ {
			key := make([]byte, 16)
			src.Bytes(key)
			a := NewCollision(CollisionConfig{Sim: attackerCfg(), Key: key, Seed: uint64(k), TraceOpts: opts})
			if opts.NonMem > 4094 && !trace.IsEscape(a.block.Words()[0]) {
				t.Fatalf("%+v: block template holds no escape records", opts)
			}
			tracer := &aes.Tracer{Cipher: a.cipher, Layout: aes.DefaultLayout(), Opts: opts}
			var want trace.Compiled
			for s := 0; s < 16; s++ {
				var pt [16]byte
				src.Bytes(pt[:])
				gotCT := a.encrypt(pt[:])
				wantCT, tr := tracer.EncryptBlock(pt[:], 0)
				trace.CompileInto(&want, tr)
				if gotCT != wantCT {
					t.Fatalf("%+v key %d sample %d: ciphertext %x, tracer %x", opts, k, s, gotCT, wantCT)
				}
				if a.block.Len() != want.Len() {
					t.Fatalf("%+v key %d sample %d: template has %d accesses, trace %d", opts, k, s, a.block.Len(), want.Len())
				}
				for i := 0; i < want.Len(); i++ {
					if got, w := a.block.Words()[i], want.Words()[i]; got != w {
						t.Fatalf("%+v key %d sample %d: word %d = %#x, compiled trace %#x", opts, k, s, i, got, w)
					}
					if a.block.At(i) != want.At(i) {
						t.Fatalf("%+v key %d sample %d: At(%d) = %+v, compiled trace %+v", opts, k, s, i, a.block.At(i), want.At(i))
					}
				}
			}
		}
	}
}

// referenceCollect is the sampler as it ran before the block template:
// every sample traces its encryption with aes.Tracer and compiles the trace
// afresh.
func referenceCollect(a *Collision, n int) {
	tracer := &aes.Tracer{Cipher: a.cipher, Layout: aes.DefaultLayout(), Opts: a.cfg.TraceOpts}
	var tr mem.Trace
	var ct trace.Compiled
	var pt [16]byte
	for a.warmups < 4 {
		a.warmups++
		a.src.Bytes(pt[:])
		a.cleanCache()
		_, tr = tracer.EncryptBlockInto(tr[:0], pt[:], 0)
		a.thread.ReplayBatch(trace.CompileInto(&ct, tr))
		a.thread.Drain()
	}
	for s := 0; s < n; s++ {
		a.src.Bytes(pt[:])
		a.cleanCache()
		start := a.thread.Cycle()
		var c [16]byte
		c, tr = tracer.EncryptBlockInto(tr[:0], pt[:], 0)
		a.thread.ReplayBatch(trace.CompileInto(&ct, tr))
		a.thread.Drain()
		elapsed := a.thread.Cycle() - start
		a.timing.Add(elapsed)
		a.n++
		for p, pair := range a.pairs {
			var key int
			if a.cfg.Round == FinalRound {
				key = int(c[pair.i] ^ c[pair.j])
			} else {
				key = int(pt[pair.i]^pt[pair.j]) >> 4
			}
			a.groups[p].Add(key, elapsed)
		}
	}
}

// TestCollectMatchesPerSampleTrace requires Collect over the patched
// template to leave exactly the measurement state and thread counters the
// per-sample trace-and-compile loop leaves, over SA and Newcache L1s at
// windows 1, 8 and 32, PLcache with preloaded tables, miss queues 1, 2 and
// 4, and both attacked rounds.
func TestCollectMatchesPerSampleTrace(t *testing.T) {
	type victim struct {
		name string
		kind sim.CacheKind
		tc   sim.ThreadConfig
	}
	var victims []victim
	for _, kind := range []sim.CacheKind{sim.KindSA, sim.KindNewcache} {
		victims = append(victims, victim{fmt.Sprintf("%s/w1", kind), kind, sim.ThreadConfig{}})
		for _, w := range []int{8, 32} {
			victims = append(victims, victim{fmt.Sprintf("%s/w%d", kind, w), kind,
				sim.ThreadConfig{Mode: sim.ModeRandomFill, Window: rng.Symmetric(w)}})
		}
	}
	victims = append(victims, victim{"plcache/preload", sim.KindPLcache, sim.ThreadConfig{
		Mode: sim.ModePreload, SecretRegions: aes.DefaultLayout().EncTableRegions(), Owner: 1,
	}})
	seed := uint64(0)
	for _, v := range victims {
		for _, mq := range []int{1, 2, 4} {
			for _, round := range []Round{FinalRound, FirstRound} {
				seed++
				cfg := CollisionConfig{Sim: sim.DefaultConfig(), Victim: v.tc, Round: round, Seed: seed}
				cfg.Sim.L1Kind = v.kind
				cfg.Sim.MissQueue = mq
				got, want := NewCollision(cfg), NewCollision(cfg)
				got.Collect(300)
				referenceCollect(want, 300)
				gb, err := got.Stats().MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				wb, err := want.Stats().MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gb, wb) {
					t.Errorf("%s mq=%d round %d: collision stats differ from the per-sample trace loop", v.name, mq, round)
				}
				if g, w := got.thread.Result(), want.thread.Result(); g != w {
					t.Errorf("%s mq=%d round %d: thread result %+v, per-sample trace loop %+v", v.name, mq, round, g, w)
				}
			}
		}
	}
}
