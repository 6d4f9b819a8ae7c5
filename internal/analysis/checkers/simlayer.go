package checkers

import (
	"go/ast"
	"strings"

	"randfill/internal/analysis"
)

// simlayer enforces the simulator's layering contract: internal/sim and
// internal/securecache are composition layers over cache.Cache,
// hierarchy.Level and securecache.SecureCache, so concrete cache
// architectures may only be constructed inside the designated builders
// (functions named build* — the level builders in sim/levels.go and the
// registry factories in securecache/registry.go). A constructor call
// anywhere else re-hardwires a level the way the pre-hierarchy machine
// hardwired its L2 — the exact coupling the refactor removed: code that
// constructs a concrete cache inline cannot be retargeted to a different
// architecture, level count, or registry entry by configuration.
// Test files are exempt (tests pin concrete behaviour on purpose).
type simlayer struct{}

func (simlayer) Name() string { return "simlayer" }

func (simlayer) Doc() string {
	return "forbids concrete cache construction in internal/sim and internal/securecache outside the build* builders"
}

// simlayerConstructors lists the cache-architecture constructors, as
// (package path suffix, function name) pairs in stable order.
var simlayerConstructors = []struct{ pkgSuffix, fn string }{
	{"internal/cache", "NewSetAssoc"},
	{"internal/newcache", "New"},
	{"internal/newcache", "NewWithPolicy"},
	{"internal/plcache", "NewWithPolicy"},
	{"internal/rpcache", "New"},
	{"internal/rpcache", "NewWithPolicy"},
	{"internal/nomo", "New"},
	{"internal/nomo", "NewWithPolicy"},
	{"internal/scattercache", "NewWithPolicy"},
	{"internal/mirage", "NewWithPolicy"},
}

func (simlayer) Run(pass *analysis.Pass) error {
	if !pathHasSuffix(pass.Pkg.Path, "sim") && !pathHasSuffix(pass.Pkg.Path, "securecache") {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "build") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				for _, c := range simlayerConstructors {
					if fn.Name() == c.fn && pathHasSuffix(fn.Pkg().Path(), c.pkgSuffix) {
						pass.Reportf(call.Pos(), analysis.SeverityError,
							"concrete cache constructed outside a level builder (%s.%s in %q); construct caches only in build* functions so every level stays configuration-driven",
							fn.Pkg().Name(), fn.Name(), fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}
