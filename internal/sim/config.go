// Package sim is the timing simulator the experiments run on: a trace-driven
// model of a 4-wide out-of-order processor with an N-level non-blocking
// write-back cache hierarchy (two levels in the paper's gem5 configuration,
// Table IV), reproducing the evaluation at the granularity the experiments
// need — hit/miss behaviour, miss-queue (MSHR) occupancy and merging,
// per-level fill policies, and SMT co-execution. The hierarchy itself (levels
// below the L1, the uniform miss path, cross-level write-back) is
// internal/hierarchy; this package adds the processor and thread model.
//
// The model is deliberately simple and documented in DESIGN.md: instruction
// issue costs 1/IssueWidth cycles per instruction; independent misses
// overlap up to the miss-queue capacity; an access marked Dependent waits
// for all outstanding demand misses (the load-to-use serialization the
// AES round structure produces); random-fill and prefetch requests ride the
// same miss queue in the background.
package sim

import (
	"fmt"
	"strings"

	"randfill/internal/cache"
	"randfill/internal/mem"
	"randfill/internal/rng"
	"randfill/internal/securecache"
)

// CacheKind selects the L1 data cache architecture: "sa", the Table IV
// set-associative baseline, or a securecache registry design other than
// randfill (see securecache.NewLineStore). DesignL1 maps every registry
// design, randfill included, onto a kind.
type CacheKind string

const (
	// KindSA is a conventional set-associative cache (Table IV baseline).
	KindSA CacheKind = "sa"
	// KindNewcache is the Newcache secure cache.
	KindNewcache CacheKind = "newcache"
	// KindPLcache is the PLcache partition-locked cache.
	KindPLcache CacheKind = "plcache"
)

// DesignL1 maps a securecache registry design, or "sa", onto the
// simulator: the L1 kind it runs as and the fill policy of a thread on it.
// randfill is the SA cache filling from the paper's [-16,+15] window; every
// other name is its own L1 kind under demand fill.
func DesignL1(name string) (CacheKind, ThreadConfig) {
	if name == "randfill" {
		return KindSA, ThreadConfig{Mode: ModeRandomFill, Window: rng.Symmetric(32)}
	}
	return CacheKind(name), ThreadConfig{}
}

// Table IV's core. The paper evaluates this one core, so these are
// constants, not Config fields.
const (
	// IssueWidth is the processor issue width (4-wide out-of-order):
	// issuing an instruction costs 1/IssueWidth cycles.
	IssueWidth = 4
	// L1HitLat is the L1 hit latency in cycles.
	L1HitLat = 1
	// MemLat is the DRAM latency in cycles that a miss in every level
	// adds.
	MemLat = 160
)

// Config mirrors the paper's Table IV simulator configuration. A zero
// field stands for DefaultConfig's value, and Validate decides whether New
// builds the configuration.
type Config struct {
	// L1 data cache geometry and architecture.
	L1     cache.Geometry
	L1Kind CacheKind
	// L1Policy is the L1 replacement policy name (see cache.PolicyNames:
	// lru, fifo, random, plru, srrip, brrip). It applies to every L1Kind:
	// "" selects the kind's historical default (LRU for the SA cache and
	// the recency-based designs, uniform-random for the randomized ones),
	// and any explicit name overrides the design's victim selection — the
	// Peters et al. policy × design axis PolicyMatrix sweeps.
	L1Policy string

	// MissQueue is the number of miss-queue (MSHR) entries per thread
	// (Table IV: 4; the security evaluation also uses 1).
	MissQueue int

	// FillQueueCap bounds the random fill queue (Figure 3's FIFO;
	// default 64). An ablation knob: a tiny queue drops fills under
	// bursts of back-to-back misses.
	FillQueueCap int

	// Levels is the stack of cache levels below the L1, nearest the L1
	// first, each an LRU set-associative cache with its own hit latency
	// and optional random fill window. A window at the L2 is the "both L1
	// and L2 are random fill caches" variant of Section VI. Empty selects
	// DefaultConfig's single demand-fill L2, and a level with a zero Geom
	// or HitLat takes that L2's.
	Levels []LevelConfig

	// Seed drives all simulator randomness (replacement, fill windows).
	Seed uint64
}

// defaultL2 is Table IV's L2, which a level's zero fields stand for.
var defaultL2 = LevelConfig{Geom: cache.Geometry{SizeBytes: 2 * 1024 * 1024, Ways: 8}, HitLat: 20}

// DefaultConfig returns the Table IV baseline: 32 KB 4-way L1D with LRU,
// 2 MB 8-way L2 with a 20-cycle hit latency, 4 miss queue entries and a
// 64-entry random fill queue, on the core the constants above describe.
func DefaultConfig() Config {
	return Config{Levels: []LevelConfig{defaultL2}}.withCoreDefaults()
}

// AttackerConfig returns the security-evaluation machine: Table IV with a
// reduced miss queue, the configuration the paper notes favors the attacker
// (it used 1 entry). It uses 2 entries — one serializing demand misses plus
// room for a background fill — because in a trace-driven model a single
// shared entry is always re-claimed by the next back-to-back demand miss,
// starving the random fill queue entirely (gem5's instruction stream has
// pipeline gaps that let fills slip in; see DESIGN.md).
func AttackerConfig() Config {
	cfg := DefaultConfig()
	cfg.MissQueue = 2
	return cfg
}

// withDefaults returns c with every zero field set to DefaultConfig's
// value. It fills the levels in a fresh array: copies of a Config share
// one Levels backing array, which must stay the caller's.
func (c Config) withDefaults() Config {
	c = c.withCoreDefaults()
	levels := c.Levels
	if len(levels) == 0 {
		levels = []LevelConfig{defaultL2}
	}
	c.Levels = make([]LevelConfig, len(levels))
	for i, lc := range levels {
		c.Levels[i] = lc.withDefaults()
	}
	return c
}

// withCoreDefaults is withDefaults for every field but Levels. It
// allocates nothing, so Validate can call it.
func (c Config) withCoreDefaults() Config {
	if c.L1.SizeBytes == 0 {
		c.L1 = cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}
	}
	if c.L1Kind == "" {
		c.L1Kind = KindSA // LRU unless L1Policy says otherwise (Table IV)
	}
	if c.MissQueue == 0 {
		c.MissQueue = 4
	}
	if c.FillQueueCap == 0 {
		c.FillQueueCap = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// maxMissQueue bounds Config.MissQueue at 1024 entries, 128 times the
// largest miss queue any experiment builds: NewThread allocates the queue
// up front.
const maxMissQueue = 1024

// Validate returns nil if New builds c, and otherwise an error naming the
// first rule c breaks: the L1 kind and its geometry
// (securecache.CheckLineStore), the L1 policy name, the miss and fill queue
// sizes, and each lower level's geometry (cache.CheckGeometry) and window.
// A zero field is checked as the default it stands for. Validate is the
// one place a machine configuration is checked: New and Reset panic only
// through it, and ValidateThread checks a thread against it. It allocates
// nothing for a valid configuration.
func (c Config) Validate() error {
	c = c.withCoreDefaults()
	if err := securecache.CheckLineStore(string(c.L1Kind), c.L1); err != nil {
		return fmt.Errorf("sim: L1: %w", err)
	}
	if !cache.KnownPolicy(c.L1Policy) {
		return fmt.Errorf("sim: unknown L1 policy %q (have %s)", c.L1Policy, strings.Join(cache.PolicyNames(), ", "))
	}
	if c.MissQueue < 1 || c.MissQueue > maxMissQueue {
		return fmt.Errorf("sim: %d miss queue entries, want 1 to %d", c.MissQueue, maxMissQueue)
	}
	if c.FillQueueCap < 1 {
		return fmt.Errorf("sim: %d fill queue entries, want at least 1", c.FillQueueCap)
	}
	for k, lc := range c.Levels {
		lc = lc.withDefaults()
		if err := cache.CheckGeometry(lc.Geom); err != nil {
			return fmt.Errorf("sim: L%d: %w", k+2, err)
		}
		if !lc.Window.Valid() {
			return fmt.Errorf("sim: L%d window %v has a negative bound", k+2, lc.Window)
		}
	}
	return nil
}

// ValidateThread returns nil if a machine built from c runs a thread
// configured by tc, and otherwise an error: the mode must be one of the
// FillModes, a random fill thread needs a nonzero window with no negative
// bound (the zero window is demand fetch), and a preload thread a PLcache
// L1, which locks the preloaded lines. NewThread panics only through it.
func (c Config) ValidateThread(tc ThreadConfig) error {
	switch tc.Mode {
	case ModeDemand, ModeDisableSecret, ModeInforming:
	case ModeRandomFill:
		if tc.Window.Zero() || !tc.Window.Valid() {
			return fmt.Errorf("sim: random fill window %v: want a nonzero window with no negative bound (the zero window is demand fetch)", tc.Window)
		}
	case ModePreload:
		if kind := c.withCoreDefaults().L1Kind; kind != KindPLcache {
			return fmt.Errorf("sim: preload needs a plcache L1, which locks the preloaded lines (have %s)", kind)
		}
	default:
		return fmt.Errorf("sim: unknown fill mode %v", tc.Mode)
	}
	return nil
}

// LevelConfig describes one cache level below the L1 (see Config.Levels).
type LevelConfig struct {
	// Geom is the level's set-associative geometry.
	Geom cache.Geometry
	// HitLat is the latency charged when a request reaches this level.
	HitLat uint64
	// Window, when non-zero, runs the random fill policy at this level
	// through a full core.Engine (nofill forwarding, drop-if-present,
	// underflow clamping, drop stats).
	Window rng.Window
}

// withDefaults returns lc with a zero Geom or HitLat set to Table IV's L2.
func (lc LevelConfig) withDefaults() LevelConfig {
	if lc.Geom.SizeBytes == 0 {
		lc.Geom = defaultL2.Geom
	}
	if lc.HitLat == 0 {
		lc.HitLat = defaultL2.HitLat
	}
	return lc
}

// buildL1 constructs the configured L1 cache through
// securecache.NewLineStore, from a configuration Validate accepts: it has
// checked the kind, the geometry and the policy name, so neither lookup
// below can fail. Stream rules: the SA cache keeps its historical shape
// (the random policy draws from src itself, no split); for the secure
// designs a non-default RNG-backed policy derives a dedicated stream via
// src.Split(9) before the design consumes src, while ""/draw-free policies
// split nothing — so every default configuration's draw sequence is
// byte-identical to the pre-policy-parameterization layout.
func (c Config) buildL1(src *rng.Source) cache.Cache {
	var pol cache.Policy
	structure := src
	if c.L1Kind == KindSA {
		// The SA cache has no structure randomness to draw.
		pol, _ = cache.PolicyByName(c.L1Policy, src)
		structure = nil
	} else if c.L1Policy != "" {
		var psrc *rng.Source
		if cache.PolicyNeedsRNG(c.L1Policy) {
			psrc = src.Split(9)
		}
		pol, _ = cache.PolicyByName(c.L1Policy, psrc)
	}
	l1, _ := securecache.NewLineStore(string(c.L1Kind), c.L1, pol, structure)
	return l1
}

// FillMode selects a thread's cache fill policy (the axis the paper's
// evaluation sweeps).
type FillMode int

const (
	// ModeDemand is the conventional demand fetch baseline.
	ModeDemand FillMode = iota
	// ModeRandomFill is the paper's random fill policy; the window comes
	// from ThreadConfig.Window.
	ModeRandomFill
	// ModeDisableSecret disables the cache for security-critical
	// accesses (the "disable cache" constant-time baseline): accesses
	// with Secret set bypass the L1 entirely.
	ModeDisableSecret
	// ModePreload is the PLcache+preload baseline: the thread's
	// SecretRegions are preloaded and locked at thread creation
	// (requires L1Kind == KindPLcache).
	ModePreload
	// ModeInforming is the "informing loads" baseline (Kong et al.,
	// HPCA 2009): security-critical loads that miss invoke a user-level
	// exception handler that reloads every security-critical line. The
	// handler's invocation overhead plus the reload traffic is charged
	// on every secret-access miss — the approach the paper finds slower
	// than PLcache+preload and abusable for denial of service.
	ModeInforming
)

func (m FillMode) String() string {
	switch m {
	case ModeDemand:
		return "demand"
	case ModeRandomFill:
		return "randomfill"
	case ModeDisableSecret:
		return "disable-cache"
	case ModePreload:
		return "plcache+preload"
	case ModeInforming:
		return "informing-loads"
	default:
		return fmt.Sprintf("FillMode(%d)", int(m))
	}
}

// ThreadConfig describes one hardware thread's fill policy.
type ThreadConfig struct {
	Mode FillMode
	// Window is the random fill window (ModeRandomFill only).
	Window rng.Window
	// SecretRegions lists the security-critical regions, used by
	// ModePreload (what to lock) and available to ModeDisableSecret.
	SecretRegions []mem.Region
	// Owner is the process id recorded on lines this thread fills.
	Owner int
	// KeepRedundantFills disables the engine's drop-if-present tag check
	// (ablation only).
	KeepRedundantFills bool
}
