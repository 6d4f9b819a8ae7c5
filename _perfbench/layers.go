package main

import "strings"

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "randfill/internal/"

// layerOf maps every package under internal/ (path relative to internal/)
// to exactly one layer bucket. Bucket names are the layer names the
// per-layer metrics use. TestLayerMapComplete keeps this map in step with
// the tree, so a new package cannot silently grow unattributed_frac.
var layerOf = map[string]string{
	"experiments": "experiments",
	"parexp":      "experiments",
	"fabric":      "experiments",

	"checkpoint":  "checkpoint",
	"atomicio":    "checkpoint",
	"faultinject": "checkpoint",

	"attacks": "attacks",

	"infotheory": "infotheory",
	"stats":      "infotheory",

	// The victim programs whose table lookups the attacks observe.
	"aes":      "aes",
	"blowfish": "aes",
	"modexp":   "aes",
	"ctsafe":   "aes",

	"workloads": "workloads",
	"traceio":   "workloads",

	"trace": "trace",
	"mem":   "trace",

	"sim": "sim",
	"tlb": "sim",

	"hierarchy": "hierarchy",
	"prefetch":  "hierarchy",

	"core":     "core",
	"adaptive": "core",

	"cache": "cache",

	"securecache":             "securecache",
	"securecache/conformance": "securecache",
	"newcache":                "securecache",
	"plcache":                 "securecache",
	"rpcache":                 "securecache",
	"nomo":                    "securecache",
	"scattercache":            "securecache",
	"mirage":                  "securecache",

	"rng": "rng",

	// Build and diagnostics tooling: never on an experiment's path.
	"analysis":          "tooling",
	"analysis/checkers": "tooling",
	"analysis/flow":     "tooling",
	"profiling":         "tooling",
}

// Buckets that are not packages under internal/.
const (
	bucketGC           = "runtime.gc"
	bucketBench        = "bench"
	bucketUnattributed = "unattributed"
)

// gcFrames mark a CPU sample as garbage-collector work wherever they sit on
// the stack: background mark workers, sweepers, the scavenger, and mark
// assists charged to an allocating goroutine.
var gcFrames = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcStart",
	"runtime.gcMarkDone",
	"runtime.gcMarkTermination",
}

// funcPackage returns the import path of a symbolized Go function name such
// as "randfill/internal/sim.(*Thread).access" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// frameBucket returns the bucket of one frame, or "" for a frame that does
// not belong to this module (standard library, runtime).
func frameBucket(fn string) string {
	pkg := funcPackage(fn)
	if rel, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		if b, ok := layerOf[rel]; ok {
			return b
		}
		return bucketUnattributed
	}
	if pkg == "main" || strings.HasPrefix(pkg, "randfill/") {
		return bucketBench
	}
	return ""
}

// stackBucket folds one CPU sample's stack (leaf first) into a bucket: the
// garbage collector if any GC frame is on the stack, otherwise the nearest
// frame from this module, so standard-library and runtime helpers (memmove,
// mallocgc, sort) are charged to the layer that called them. A stack with no
// module frame at all is unattributed.
func stackBucket(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if fn == g {
				return bucketGC
			}
		}
	}
	for _, fn := range stack {
		if b := frameBucket(fn); b != "" {
			return b
		}
	}
	return bucketUnattributed
}
