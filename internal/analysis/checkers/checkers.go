// Package checkers holds the domain-specific analyzers that enforce this
// repository's determinism and security-modelling policy:
//
//   - detrand:     all randomness and time must come from internal/rng
//   - maporder:    no observable output may depend on map iteration order
//   - rngshare:    rng streams are threaded, never ambiently shared
//   - errcheck-io: experiment I/O errors must not be dropped
//   - ctindex:     only designated victim packages may index by secrets
//   - ctflow:      interprocedural taint: secrets reach memory indices,
//     branches, and div/mod only at manifest-inventoried victim sites
//   - simlayer:    internal/sim constructs caches only in level builders
//   - atomicwrite: result artifacts are written via internal/atomicio
//   - unused:      package-level code outside cmd/ and examples/ has a
//     non-test caller (cmd/, examples/ and _perfbench/ count as callers)
//
// See each checker's Doc for the precise rule and its rationale.
package checkers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"randfill/internal/analysis"
)

// All returns every registered checker, in stable order.
func All() []analysis.Analyzer {
	return []analysis.Analyzer{
		detrand{},
		maporder{},
		rngshare{},
		errcheckIO{},
		ctindex{},
		ctflow{},
		simlayer{},
		atomicwrite{},
		unused{},
	}
}

// ByName resolves a comma-separated -checkers list.
func ByName(names string) ([]analysis.Analyzer, error) {
	byName := make(map[string]analysis.Analyzer)
	for _, az := range All() {
		byName[az.Name()] = az
	}
	var out []analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		az, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown checker %q", name)
		}
		out = append(out, az)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty checker list %q", names)
	}
	return out, nil
}

// calleeFunc resolves the *types.Func a call invokes (package function,
// method, or interface method), or nil when it cannot be resolved (builtin,
// function-typed variable, or missing type info). Generic instantiation
// (f[T](...) parses the callee as an IndexExpr or IndexListExpr) is
// unwrapped, so generic calls resolve like plain ones.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		}
		break
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgNameOf returns the imported package an identifier refers to, when the
// identifier is a package name in a selector (e.g. the "time" in
// time.Now()). Falls back to nil when type info is missing.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.Package {
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported()
	}
	return nil
}

// isRNGSourcePtr reports whether t is *rng.Source from internal/rng.
func isRNGSourcePtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Source" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "internal/rng")
}

// pathHasSuffix reports whether pkgPath is exactly suffix or ends in
// "/"+suffix, so policy lists survive module renames and the test harness's
// synthetic package paths.
func pathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}
