package securecache_test

import (
	"reflect"
	"strings"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mem"
	"randfill/internal/mirage"
	"randfill/internal/newcache"
	"randfill/internal/nomo"
	"randfill/internal/plcache"
	"randfill/internal/rng"
	"randfill/internal/rpcache"
	"randfill/internal/scattercache"
	"randfill/internal/securecache"
)

func smallCfg() securecache.Config {
	return securecache.Config{Geom: cache.Geometry{SizeBytes: 4 * 1024, Ways: 4}}
}

func TestRegistry(t *testing.T) {
	want := []string{"randfill", "newcache", "plcache", "rpcache", "nomo", "scattercache", "mirage"}
	names := securecache.Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d designs, want %d", len(names), len(want))
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("design %d is %q, want %q (registry order is part of the matrix contract)", i, names[i], n)
		}
	}
	for _, d := range securecache.All() {
		if d.Description == "" {
			t.Errorf("design %q missing description", d.Name)
		}
		if _, ok := securecache.ByName(d.Name); !ok {
			t.Errorf("ByName(%q) did not find the design", d.Name)
		}
	}
	if _, err := securecache.New("nonesuch", securecache.Config{}, rng.New(1)); err == nil {
		t.Error("unknown design name accepted")
	}
	if c, err := securecache.New("mirage", smallCfg(), rng.New(1)); err != nil || c == nil {
		t.Errorf("New(mirage) = %v, %v", c, err)
	}
}

// TestNewLineStoreKinds: NewLineStore builds "sa" and every registry design
// but randfill, and rejects any other kind with an error that names each
// kind it builds, in that order.
func TestNewLineStoreKinds(t *testing.T) {
	want := []string{"sa"}
	for _, n := range securecache.Names() {
		if n != "randfill" {
			want = append(want, n)
		}
	}
	geom := smallCfg().Geom
	for _, k := range want {
		if err := securecache.CheckLineStore(k, geom); err != nil {
			t.Errorf("CheckLineStore(%q) = %v", k, err)
		}
		c, err := securecache.NewLineStore(k, geom, nil, rng.New(1))
		if err != nil || c == nil {
			t.Fatalf("NewLineStore(%q) = %v, %v", k, c, err)
		}
		if c.NumLines() != 64 {
			t.Errorf("%s: %d lines, want 64", k, c.NumLines())
		}
	}
	for _, bad := range []string{"bogus", "randfill", ""} {
		_, err := securecache.NewLineStore(bad, geom, nil, rng.New(1))
		if err == nil {
			t.Errorf("NewLineStore(%q) accepted an unknown kind", bad)
			continue
		}
		if cerr := securecache.CheckLineStore(bad, geom); cerr == nil || cerr.Error() != err.Error() {
			t.Errorf("CheckLineStore(%q) = %v, NewLineStore says %v", bad, cerr, err)
		}
		msg := err.Error()
		i, j := strings.Index(msg, "(have "), strings.LastIndex(msg, ")")
		if i < 0 || j < i || !strings.Contains(msg, `"`+bad+`"`) {
			t.Fatalf("error %q does not name the kind and list the known ones", msg)
		}
		if got := strings.Split(msg[i+len("(have "):j], ", "); !reflect.DeepEqual(got, want) {
			t.Errorf("error lists %v, want %v", got, want)
		}
	}
	// A geometry no kind builds is an error, not a constructor panic.
	for _, k := range want {
		if _, err := securecache.NewLineStore(k, cache.Geometry{SizeBytes: 1000, Ways: 4}, nil, rng.New(1)); err == nil {
			t.Errorf("NewLineStore(%q) accepted a 1000-byte cache", k)
		}
	}
}

// TestDemandAdapterFillsOnMiss: the structural designs' Access is lookup
// plus demand fill — a missed line is resident afterwards.
func TestDemandAdapterFillsOnMiss(t *testing.T) {
	for _, name := range []string{"newcache", "plcache", "rpcache", "nomo", "scattercache", "mirage"} {
		c, err := securecache.New(name, smallCfg(), rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		if c.Access(7, false) {
			t.Errorf("%s: cold access hit", name)
		}
		if !c.Probe(7) {
			t.Errorf("%s: line not resident after demand miss", name)
		}
		if !c.Access(7, false) {
			t.Errorf("%s: re-access missed", name)
		}
		if occ := c.Occupancy(); occ < 1 {
			t.Errorf("%s: occupancy %d after a fill", name, occ)
		}
	}
}

// TestRandfillAdapterNoFill: the randfill design's Access routes through
// the engine — the missing line itself is NOT installed (no-fill), which is
// the property the whole paper rests on.
func TestRandfillAdapterNoFill(t *testing.T) {
	c, err := securecache.New("randfill", smallCfg(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(7, false) {
		t.Fatal("cold access hit")
	}
	if c.Probe(7) {
		t.Fatal("randfill installed the missing line itself")
	}
	if c.Occupancy() == 0 {
		t.Fatal("random fill installed nothing from the window")
	}
}

// access replays the demand adapter's exact sequence against a hand-built
// cache: Lookup, then Fill on miss with owner 0.
func access(c cache.Cache, l mem.Line) bool {
	if c.Lookup(l, false) {
		return true
	}
	c.Fill(l, cache.FillOpts{Owner: 0})
	return false
}

// TestPortIdentity proves the port consumed no extra RNG draws: a design
// built through the registry behaves bit-identically to the same
// architecture built by hand with the historical split discipline
// (structure from Split(1), fill engine from Split(2)). PLcache and NoMo
// take no structure stream: the registry's Split(1) for them is a draw
// from src that nothing after construction reads.
func TestPortIdentity(t *testing.T) {
	const seed = 11
	geom := smallCfg().Geom
	span := 4 * geom.SizeBytes / mem.LineSize

	replay := func(t *testing.T, ported securecache.SecureCache, direct func(mem.Line) bool, stats *cache.Stats) {
		t.Helper()
		src := rng.New(99)
		for i := 0; i < 4096; i++ {
			l := mem.Line(src.Intn(span))
			if got, want := ported.Access(l, false), direct(l); got != want {
				t.Fatalf("op %d (line %d): registry says hit=%v, direct construction says %v", i, l, got, want)
			}
		}
		if *ported.Stats() != *stats {
			t.Fatalf("stats diverged: registry %+v, direct %+v", *ported.Stats(), *stats)
		}
	}

	t.Run("randfill", func(t *testing.T) {
		ported, _ := securecache.New("randfill", smallCfg(), rng.New(seed))
		src := rng.New(seed)
		c := cache.NewSetAssoc(geom, cache.LRU{})
		eng := core.NewEngine(c, src.Split(2))
		eng.SetRR(16, 15)
		replay(t, ported, func(l mem.Line) bool { return eng.Access(l, false) }, c.Stats())
	})
	t.Run("newcache", func(t *testing.T) {
		ported, _ := securecache.New("newcache", smallCfg(), rng.New(seed))
		c := newcache.New(geom.SizeBytes, 4, rng.New(seed).Split(1))
		replay(t, ported, func(l mem.Line) bool { return access(c, l) }, c.Stats())
	})
	t.Run("plcache", func(t *testing.T) {
		ported, _ := securecache.New("plcache", smallCfg(), rng.New(seed))
		c := plcache.NewWithPolicy(geom, nil)
		replay(t, ported, func(l mem.Line) bool { return access(c, l) }, c.Stats())
	})
	t.Run("rpcache", func(t *testing.T) {
		ported, _ := securecache.New("rpcache", smallCfg(), rng.New(seed))
		c := rpcache.NewWithPolicy(geom, rng.New(seed).Split(1), nil)
		replay(t, ported, func(l mem.Line) bool { return access(c, l) }, c.Stats())
	})
	t.Run("nomo", func(t *testing.T) {
		ported, _ := securecache.New("nomo", smallCfg(), rng.New(seed))
		c := nomo.NewWithPolicy(geom, 2, 1, nil)
		replay(t, ported, func(l mem.Line) bool { return access(c, l) }, c.Stats())
	})
	t.Run("scattercache", func(t *testing.T) {
		ported, _ := securecache.New("scattercache", smallCfg(), rng.New(seed))
		c := scattercache.NewWithPolicy(geom, rng.New(seed).Split(1), nil)
		replay(t, ported, func(l mem.Line) bool { return access(c, l) }, c.Stats())
	})
	t.Run("mirage", func(t *testing.T) {
		ported, _ := securecache.New("mirage", smallCfg(), rng.New(seed))
		c := mirage.NewWithPolicy(geom, rng.New(seed).Split(1), nil)
		replay(t, ported, func(l mem.Line) bool { return access(c, l) }, c.Stats())
	})
}

// TestDefaultPolicyIdentity pins the registry's byte-identity guarantee for
// the Policy knob itself: naming a design's own default policy explicitly
// ("lru" on the LRU designs) replays bit-identically to the empty default.
// The RNG-default designs (newcache, scattercache, mirage) are deliberately
// absent — an explicit "random" draws from the dedicated policy stream
// (Split(3)) rather than the structural one, so only "" promises identity
// there; TestPortIdentity covers that case. A bad policy name must error on
// the New path, not panic in a factory.
func TestDefaultPolicyIdentity(t *testing.T) {
	for _, name := range []string{"randfill", "plcache", "rpcache", "nomo"} {
		t.Run(name, func(t *testing.T) {
			def, err := securecache.New(name, smallCfg(), rng.New(17))
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallCfg()
			cfg.Policy = "lru"
			exp, err := securecache.New(name, cfg, rng.New(17))
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(88)
			for i := 0; i < 4096; i++ {
				l := mem.Line(src.Intn(256))
				if got, want := exp.Access(l, false), def.Access(l, false); got != want {
					t.Fatalf("op %d (line %d): explicit lru hit=%v, default hit=%v", i, l, got, want)
				}
			}
			if *exp.Stats() != *def.Stats() {
				t.Fatalf("stats diverged: explicit %+v, default %+v", *exp.Stats(), *def.Stats())
			}
		})
	}

	bad := smallCfg()
	bad.Policy = "clock"
	if _, err := securecache.New("randfill", bad, rng.New(1)); err == nil {
		t.Fatal("unknown policy name accepted by securecache.New")
	}
}

// TestSetPartyForwarding: the adapter forwards the party id both as the
// fill owner and — for domain-aware designs — as the active trust domain.
func TestSetPartyForwarding(t *testing.T) {
	ported, _ := securecache.New("rpcache", smallCfg(), rng.New(5))
	direct := rpcache.NewWithPolicy(smallCfg().Geom, rng.New(5).Split(1), nil)
	src := rng.New(77)
	for i := 0; i < 2048; i++ {
		p := src.Intn(2)
		ported.SetParty(p)
		direct.SetActiveDomain(p)
		l := mem.Line(src.Intn(256))
		if got, want := ported.Access(l, false), access(direct, l); got != want {
			t.Fatalf("op %d: domain forwarding diverged (hit=%v vs %v)", i, got, want)
		}
	}
	if *ported.Stats() != *direct.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", *ported.Stats(), *direct.Stats())
	}
}
