package securecache

import (
	"fmt"
	"strings"

	"randfill/internal/cache"
	"randfill/internal/core"
	"randfill/internal/mirage"
	"randfill/internal/newcache"
	"randfill/internal/nomo"
	"randfill/internal/plcache"
	"randfill/internal/rng"
	"randfill/internal/rpcache"
	"randfill/internal/scattercache"
)

// Config sizes a design instance. The zero value selects the Table IV L1:
// 32 KB, 4 ways, each design's own replacement policy.
type Config struct {
	// Geom is the cache geometry (default 32 KB, 4 ways). Mirage uses
	// only its capacity.
	Geom cache.Geometry
	// Policy names the replacement policy (see cache.PolicyNames). ""
	// selects each design's historical default — LRU for randfill,
	// plcache, rpcache and nomo; uniform random for newcache,
	// scattercache and mirage — and is guaranteed byte-identical to the
	// pre-policy registry. Any explicit name overrides the design's
	// victim selection: the Peters et al. policy × design axis.
	Policy string
}

// Design is one registry entry: a named, documented secure-cache design.
type Design struct {
	// Name is the registry key, also accepted by `rfsim -design`.
	Name string
	// Description is a one-line summary of the protection mechanism.
	Description string
}

// All returns the design registry in evaluation order: the paper's design
// first, then the prior work it compares against, then the later
// randomization families. The order is part of the OccupancyMatrix
// experiment's byte-identity contract — do not reorder casually.
func All() []Design {
	return []Design{
		{"randfill", "random fill: demand misses fill a random neighbor from the window, never the missing line"},
		{"newcache", "Newcache: dynamically remapped logical direct-mapped cache with random replacement"},
		{"plcache", "PLcache: per-line lock bits; locked lines are never evicted by other processes"},
		{"rpcache", "RPcache: per-domain set permutation with deflected cross-domain evictions"},
		{"nomo", "NoMo: static per-thread way reservation on an SMT core"},
		{"scattercache", "ScatterCache-style: per-way keyed skewed indexing, random-way replacement"},
		{"mirage", "MIRAGE-style: fully-associative store with uniform global random eviction"},
	}
}

// Names returns the registered design names in registry order.
func Names() []string {
	ds := All()
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

// ByName finds a registered design.
func ByName(name string) (Design, bool) {
	for _, d := range All() {
		if d.Name == name {
			return d, true
		}
	}
	return Design{}, false
}

// New builds a named design, or errors with the known names. A bad
// cfg.Policy errors too (listing the valid policy names), so CLI paths get
// a diagnostic instead of a factory panic.
func New(name string, cfg Config, src *rng.Source) (SecureCache, error) {
	d, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("securecache: unknown design %q (have %v)", name, Names())
	}
	if !cache.KnownPolicy(cfg.Policy) {
		return nil, fmt.Errorf("securecache: unknown replacement policy %q (have %v)",
			cfg.Policy, cache.PolicyNames())
	}
	return d.New(cfg, src), nil
}

// New builds a fresh instance of d. All randomness (index keys,
// permutations, replacement, fill windows) derives from src: same seed,
// same behaviour. The split layout matches the attacks' historical one: a
// non-default RNG-backed policy (random, brrip) draws from src.Split(3),
// taken first and only then, so ""/draw-free policies leave every default
// draw sequence byte-identical; the random fill engine draws from
// src.Split(2); every other design's structure from src.Split(1). A bad
// cfg.Policy panics (New validates it first).
func (d Design) New(cfg Config, src *rng.Source) SecureCache {
	if cfg.Geom.SizeBytes == 0 {
		cfg.Geom = cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}
	}
	if cfg.Geom.Ways == 0 {
		cfg.Geom.Ways = 4
	}
	var pol cache.Policy
	if cfg.Policy != "" {
		var psrc *rng.Source
		if cache.PolicyNeedsRNG(cfg.Policy) {
			psrc = src.Split(3)
		}
		p, err := cache.PolicyByName(cfg.Policy, psrc)
		if err != nil {
			panic(err)
		}
		pol = p
	}
	if d.Name == "randfill" {
		c := buildLineStore("sa", cfg.Geom, pol, nil)
		eng := core.NewEngine(c, src.Split(2))
		eng.SetRR(16, 15) // the paper's [-16,+15] evaluation window
		return &randfill{LineStore: c, eng: eng}
	}
	return &demand{LineStore: buildLineStore(d.Name, cfg.Geom, pol, src.Split(1))}
}

// kinds lists the line store kinds NewLineStore builds: the plain
// set-associative cache, then every registry design but randfill (which is
// "sa" behind the random fill engine), in registry order.
func kinds() []string {
	out := []string{"sa"}
	for _, d := range All() {
		if d.Name != "randfill" {
			out = append(out, d.Name)
		}
	}
	return out
}

// Newcache's extra index bits and NoMo's reservation (two SMT threads, one
// reserved way each) are fixed: no experiment varies them.
const (
	newcacheExtraBits = newcache.DefaultExtraBits
	nomoThreads       = 2
	nomoReserved      = 1
)

// CheckLineStore returns nil if NewLineStore builds kind over geom, and
// otherwise an error. An unknown kind's error names every kind there is; a
// geometry the kind's constructor would panic on gets the error of the
// check that constructor panics through.
func CheckLineStore(kind string, geom cache.Geometry) error {
	switch kind {
	case "sa", "rpcache", "scattercache":
		return cache.CheckGeometry(geom)
	case "plcache":
		return cache.CheckMaskedGeometry(geom)
	case "nomo":
		return nomo.Check(geom, nomoThreads, nomoReserved)
	case "newcache":
		return newcache.Check(geom.SizeBytes, newcacheExtraBits)
	case "mirage":
		return mirage.Check(geom)
	}
	return fmt.Errorf("securecache: unknown cache kind %q (have %s)", kind, strings.Join(kinds(), ", "))
}

// L1Factory returns an attack cache factory for the Table IV L1 (32 KB, 4
// ways) of the given kind under its own default policy, its structure
// randomness drawn from the attack's stream. It panics on a kind
// CheckLineStore rejects.
func L1Factory(kind string) func(src *rng.Source) cache.Cache {
	return func(src *rng.Source) cache.Cache {
		c, err := NewLineStore(kind, cache.Geometry{SizeBytes: 32 * 1024, Ways: 4}, nil, src)
		if err != nil {
			panic(err)
		}
		return c
	}
}

// NewLineStore builds the line store of the given kind — "sa", the plain
// set-associative cache, or a registry design other than randfill — over
// geom, with replacement policy pol (nil: the kind's own default) and its
// structure randomness (index keys, permutations, default random
// replacement) drawn from src. It is the one place a line store is built
// by name: the registry's designs, the simulator's L1 and the experiments'
// attack caches all come from here, each resolving pol from its own
// stream. A kind or geometry CheckLineStore rejects errors.
func NewLineStore(kind string, geom cache.Geometry, pol cache.Policy, src *rng.Source) (LineStore, error) {
	if err := CheckLineStore(kind, geom); err != nil {
		return nil, err
	}
	return buildLineStore(kind, geom, pol, src), nil
}

// buildLineStore is NewLineStore's construction switch, over a kind and
// geometry CheckLineStore accepts; the rflint simlayer checker allows
// concrete construction only in build* functions.
func buildLineStore(kind string, geom cache.Geometry, pol cache.Policy, src *rng.Source) LineStore {
	switch kind {
	case "sa":
		return cache.NewSetAssoc(geom, pol)
	case "newcache":
		return newcache.NewWithPolicy(geom.SizeBytes, newcacheExtraBits, src, pol)
	case "plcache":
		return plcache.NewWithPolicy(geom, pol)
	case "rpcache":
		return rpcache.NewWithPolicy(geom, src, pol)
	case "nomo":
		return nomo.NewWithPolicy(geom, nomoThreads, nomoReserved, pol)
	case "scattercache":
		return scattercache.NewWithPolicy(geom, src, pol)
	case "mirage":
		return mirage.NewWithPolicy(geom, src, pol)
	}
	return nil
}
