package sim

import (
	"fmt"
	"strings"
	"testing"

	"randfill/internal/cache"
	"randfill/internal/rng"
)

// TestValidate: Validate accepts, without allocating, the configurations
// New builds, and rejects each broken rule with a one-line error that New
// and Reset then panic with.
func TestValidate(t *testing.T) {
	with := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	kind := func(k CacheKind, g cache.Geometry) Config {
		return with(func(c *Config) { c.L1Kind, c.L1 = k, g })
	}
	good := []Config{
		{},
		DefaultConfig(),
		tinyConfig(),
		kind(KindNewcache, cache.Geometry{SizeBytes: 4096, Ways: 3}), // ways play no part
		kind(KindPLcache, cache.Geometry{SizeBytes: 4096, Ways: 64}),
		kind("rpcache", cache.Geometry{}),
		kind("nomo", cache.Geometry{SizeBytes: 4096, Ways: 2}),
		kind("scattercache", cache.Geometry{}),
		kind("mirage", cache.Geometry{SizeBytes: 1088, Ways: 1}),
		with(func(c *Config) { c.L1Policy, c.MissQueue, c.FillQueueCap = "brrip", 1, 1 }),
		with(func(c *Config) {
			c.Levels = []LevelConfig{{Window: rng.Window{A: 2, B: 1}}, {Geom: cache.Geometry{SizeBytes: 4 << 20, Ways: 16}, HitLat: 40}}
		}),
	}
	for i, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
		if n := testing.AllocsPerRun(10, func() { _ = cfg.Validate() }); n != 0 {
			t.Errorf("good[%d]: Validate allocates %v times", i, n)
		}
		New(cfg)
	}

	bad := []struct {
		cfg  Config
		want string
	}{
		{with(func(c *Config) { c.L1.SizeBytes = 1000 }), "size 1000"},
		{with(func(c *Config) { c.L1.Ways = 3 }), "into 3 ways"},
		{with(func(c *Config) { c.L1.Ways = -1 }), "into -1 ways"},
		{with(func(c *Config) { c.L1 = cache.Geometry{SizeBytes: 64 * 12, Ways: 2} }), "set count 6"},
		{kind("bogus", cache.Geometry{}), `unknown cache kind "bogus"`},
		{kind("randfill", cache.Geometry{}), `unknown cache kind "randfill"`},
		{kind("nomo", cache.Geometry{SizeBytes: 4096, Ways: 1}), "reserved ways exceed 1-way"},
		{kind(KindPLcache, cache.Geometry{SizeBytes: 512 << 10, Ways: 128}), "<= 64 ways"},
		{kind(KindNewcache, cache.Geometry{SizeBytes: 3072, Ways: 4}), "set count 48"},
		{kind("mirage", cache.Geometry{SizeBytes: 1000, Ways: 4}), "size 1000"},
		{kind("scattercache", cache.Geometry{SizeBytes: 32 << 10, Ways: 3}), "into 3 ways"},
		{with(func(c *Config) { c.L1Policy = "clock" }), `unknown L1 policy "clock"`},
		{with(func(c *Config) { c.MissQueue = -1 }), "-1 miss queue entries"},
		{with(func(c *Config) { c.MissQueue = 1_000_000_000 }), "1000000000 miss queue entries"},
		{with(func(c *Config) { c.L1.SizeBytes = 64 << 30 }), "size 68719476736 exceeds"},
		{with(func(c *Config) { c.FillQueueCap = -2 }), "-2 fill queue entries"},
		{with(func(c *Config) { c.Levels[0].Geom.SizeBytes = 1000 }), "L2: cache: size 1000"},
		{with(func(c *Config) {
			c.Levels = append(c.Levels, LevelConfig{Geom: cache.Geometry{SizeBytes: 64 << 30, Ways: 16}})
		}), "L3: cache: size 68719476736 exceeds"},
		{with(func(c *Config) {
			c.Levels = append(c.Levels, LevelConfig{Geom: cache.Geometry{SizeBytes: 4 << 20}})
		}), "L3: cache: 65536 lines not divisible into 0 ways"},
		{with(func(c *Config) { c.Levels[0].Window = rng.Window{A: 1, B: -1} }), "L2 window [-1,+-1]"},
	}
	for _, c := range bad {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("Validate = %v, want one line containing %q", err, c.want)
			continue
		}
		if got := panicOf(func() { New(c.cfg) }); got != err.Error() {
			t.Errorf("New panics with %q, want Validate's %q", got, err)
		}
		m := New(tinyConfig())
		if got := panicOf(func() { m.Reset(c.cfg) }); got != err.Error() {
			t.Errorf("Reset panics with %q, want Validate's %q", got, err)
		}
	}
}

// TestValidateThread: ValidateThread accepts every mode on the L1 it
// needs, and NewThread panics with its error on the rest.
func TestValidateThread(t *testing.T) {
	pl := DefaultConfig()
	pl.L1Kind = KindPLcache
	good := []struct {
		cfg Config
		tc  ThreadConfig
	}{
		{Config{}, ThreadConfig{}},
		{Config{}, ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 0, B: 1}}},
		{Config{}, ThreadConfig{Mode: ModeDisableSecret}},
		{Config{}, ThreadConfig{Mode: ModeInforming}},
		{pl, ThreadConfig{Mode: ModePreload}},
	}
	for _, c := range good {
		if err := c.cfg.ValidateThread(c.tc); err != nil {
			t.Errorf("%v: %v", c.tc.Mode, err)
		}
		New(c.cfg).NewThread(c.tc)
	}
	bad := []struct {
		tc   ThreadConfig
		want string
	}{
		{ThreadConfig{Mode: ModeRandomFill}, "window [-0,+0]"},
		{ThreadConfig{Mode: ModeRandomFill, Window: rng.Window{A: 3, B: -2}}, "window [-3,+-2]"},
		{ThreadConfig{Mode: ModePreload}, "preload needs a plcache L1"},
		{ThreadConfig{Mode: FillMode(9)}, "unknown fill mode FillMode(9)"},
	}
	for _, c := range bad {
		err := DefaultConfig().ValidateThread(c.tc)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ValidateThread(%+v) = %v, want %q", c.tc, err, c.want)
			continue
		}
		if got := panicOf(func() { New(Config{}).NewThread(c.tc) }); got != err.Error() {
			t.Errorf("NewThread panics with %q, want %q", got, err)
		}
	}
}

// panicOf runs f and returns what it panicked with, formatted, or "" if it
// returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}
