package checkers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"randfill/internal/analysis"
)

// unused reports package-level declarations that no non-test code
// references. Every published number reaches the output through the
// commands, so code that only tests reach is a second path the experiments
// never run: it costs review and test time and can drift from the path
// that does run. Delete it with the tests that exercise it, or justify it
// with //lint:ignore unused <reason>.
//
// Packages under cmd/ and examples/ are entry points, never reported, and
// their non-test code counts as a caller, as does the non-test code of the
// nested benchmark module in _perfbench/, which the loader skips and this
// checker type checks for references only. Symbols are keyed by import
// path and name, not by types.Object: the loader's importer checks every
// imported package a second time, so the object a caller sees is not the
// one the callee's package declares.
//
// A method also counts as used when non-test code calls an interface
// method of the same name and signature, or when its receiver type
// implements a standard-library interface that has the method (fmt.Stringer,
// json.Marshaler, types.Importer, error, ...), since the standard library
// calls those.
type unused struct{}

func (unused) Name() string { return "unused" }

func (unused) Doc() string {
	return "package-level funcs, methods, types, vars and consts outside cmd/ and examples/ must have a non-test reference (cmd/, examples/ and _perfbench/ count as callers): delete what only tests reach"
}

// Run is a no-op: whether a symbol is used depends on every package.
func (unused) Run(pass *analysis.Pass) error { return nil }

// unusedEntryDirs are the module-relative directories whose packages are
// entry points: never reported, always callers.
var unusedEntryDirs = []string{"cmd", "examples"}

// unusedCallerDirs are module-relative directories the loader skips whose
// non-test code still counts as a caller.
var unusedCallerDirs = []string{"_perfbench"}

func (unused) RunModule(mp *analysis.ModulePass) error {
	root, modPath := mp.Module()
	extra, err := checkCallerDirs(mp, root)
	if err != nil {
		return err
	}
	refs := &unusedRefs{live: map[string]bool{}, tests: map[string]bool{}, ifaceCalls: map[string]bool{}}
	for _, pkg := range append(append([]*analysis.Package(nil), mp.Pkgs...), extra...) {
		refs.collect(mp, pkg)
	}
	std := stdInterfaces(mp.Pkgs, modPath)

	for _, pkg := range mp.Pkgs {
		if pkg.Types == nil || strings.HasSuffix(pkg.Path, "_test") || isEntryPackage(pkg.Path, modPath) {
			continue
		}
		for _, f := range pkg.Files {
			if isTestFile(mp, f) {
				continue
			}
			for _, decl := range f.Decls {
				for _, node := range declScopes(decl) {
					for _, d := range nodeSymbols(pkg, node) {
						if refs.live[d.key] || d.method != nil && refs.methodLive(d.method, std) {
							continue
						}
						how := "never referenced"
						if refs.tests[d.key] {
							how = "referenced only by tests"
						}
						mp.Report(d.ident.Pos(), analysis.SeverityWarning,
							fmt.Sprintf("%s %s is %s: delete it, or justify it with //lint:ignore unused <reason>", d.kind, d.name, how), nil)
					}
				}
			}
		}
	}
	return nil
}

// checkCallerDirs type checks the unusedCallerDirs under root. A caller
// that does not type check hides its references, so its type errors are
// reported rather than what it calls being reported unused.
func checkCallerDirs(mp *analysis.ModulePass, root string) ([]*analysis.Package, error) {
	var out []*analysis.Package
	for _, dir := range unusedCallerDirs {
		pkg, err := mp.CheckDir(filepath.Join(root, dir))
		if err != nil {
			return nil, fmt.Errorf("unused: %s: %w", dir, err)
		}
		if pkg == nil {
			continue
		}
		for _, terr := range pkg.TypeErrors {
			pos, msg := token.NoPos, terr.Error()
			if te, ok := terr.(types.Error); ok {
				pos, msg = te.Pos, te.Msg
			}
			mp.Report(pos, analysis.SeverityWarning, "caller "+dir+" does not type check, so its references are not all counted: "+msg, nil)
		}
		out = append(out, pkg)
	}
	return out, nil
}

// isEntryPackage reports whether path is a command or example package.
func isEntryPackage(path, modPath string) bool {
	rel := strings.TrimPrefix(path, modPath+"/")
	for _, dir := range unusedEntryDirs {
		if rel == dir || strings.HasPrefix(rel, dir+"/") {
			return true
		}
	}
	return false
}

func isTestFile(mp *analysis.ModulePass, f *ast.File) bool {
	return strings.HasSuffix(mp.Fset.File(f.Pos()).Name(), "_test.go")
}

// symbol is one package-level declaration the checker judges.
type symbol struct {
	ident  *ast.Ident
	kind   string // "func", "method", "type", "var", "const"
	name   string // as printed: "F" or "T.M"
	key    string // symbolKey of its object
	method *types.Func
}

// declScopes splits a grouped declaration into its specs: each spec is its
// own scope for self-references, so a const defined from its neighbour
// uses it.
func declScopes(decl ast.Decl) []ast.Node {
	gd, ok := decl.(*ast.GenDecl)
	if !ok {
		return []ast.Node{decl}
	}
	out := make([]ast.Node, len(gd.Specs))
	for i, spec := range gd.Specs {
		out[i] = spec
	}
	return out
}

// nodeSymbols returns the package-level symbols that a func declaration or
// one spec of a grouped declaration declares.
func nodeSymbols(pkg *analysis.Package, node ast.Node) []symbol {
	var out []symbol
	add := func(id *ast.Ident, kind string) {
		if id.Name == "_" || id.Name == "init" || id.Name == "main" {
			return
		}
		obj := pkg.Info.Defs[id]
		key := symbolKey(obj)
		if key == "" {
			return
		}
		s := symbol{ident: id, kind: kind, name: id.Name, key: key}
		if fn, ok := obj.(*types.Func); ok && kind == "method" {
			s.method = fn
			s.name = recvTypeName(fn).Name() + "." + id.Name
		}
		out = append(out, s)
	}
	switch n := node.(type) {
	case *ast.FuncDecl:
		if n.Recv != nil {
			add(n.Name, "method")
		} else {
			add(n.Name, "func")
		}
	case *ast.TypeSpec:
		add(n.Name, "type")
	case *ast.ValueSpec:
		for _, id := range n.Names {
			if _, ok := pkg.Info.Defs[id].(*types.Const); ok {
				add(id, "const")
			} else {
				add(id, "var")
			}
		}
	}
	return out
}

// symbolKey names a package-level object or concrete method by import path
// and name, so that the copies the importer makes of a package resolve to
// the same key. It is "" for anything else: locals, fields, interface
// methods, and universe objects.
func symbolKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		tn := recvTypeName(fn)
		if tn == nil || isInterfaceMethod(fn) {
			return ""
		}
		return obj.Pkg().Path() + "." + tn.Name() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvTypeName is the type name of a method's receiver base type, or nil
// when fn is nil or not a method of a named type.
func recvTypeName(fn *types.Func) *types.TypeName {
	if fn == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// methodSig keys a method by name and signature, without the receiver and
// the parameter names, with types qualified by import path so that it
// matches across the importer's copies of a package.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString(fn.Name())
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), qual) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// unusedRefs is what the callers reference.
type unusedRefs struct {
	live       map[string]bool // symbol keys non-test code references
	tests      map[string]bool // symbol keys test code references
	ifaceCalls map[string]bool // methodSig of interface methods non-test code uses
}

// collect records the references in pkg. A declaration's references to
// itself (recursion, a recursive type, a method's receiver type) do not
// count.
func (r *unusedRefs) collect(mp *analysis.ModulePass, pkg *analysis.Package) {
	for _, f := range pkg.Files {
		test := strings.HasSuffix(pkg.Path, "_test") || isTestFile(mp, f)
		for _, decl := range f.Decls {
			for _, node := range declScopes(decl) {
				r.collectNode(pkg, node, test)
			}
		}
	}
}

func (r *unusedRefs) collectNode(pkg *analysis.Package, node ast.Node, test bool) {
	self := map[string]bool{}
	for _, s := range nodeSymbols(pkg, node) {
		self[s.key] = true
		if tn := recvTypeName(s.method); tn != nil {
			self[symbolKey(tn)] = true
		}
	}
	visit := func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		if key := symbolKey(obj); key != "" && !self[key] {
			if test {
				r.tests[key] = true
			} else {
				r.live[key] = true
			}
		}
		if fn, ok := obj.(*types.Func); ok && !test && isInterfaceMethod(fn) {
			r.ifaceCalls[methodSig(fn)] = true
		}
		return true
	}
	if fd, ok := node.(*ast.FuncDecl); ok && fd.Recv != nil {
		// Skip the receiver: declaring a method is not a use of its type.
		ast.Inspect(fd.Type, visit)
		if fd.Body != nil {
			ast.Inspect(fd.Body, visit)
		}
		return
	}
	ast.Inspect(node, visit)
}

// methodLive reports whether an otherwise unreferenced method is reachable
// through an interface: one that non-test code calls, or one from the
// standard library that its receiver type implements.
func (r *unusedRefs) methodLive(fn *types.Func, std map[string][]*types.Interface) bool {
	if r.ifaceCalls[methodSig(fn)] {
		return true
	}
	t := recvTypeName(fn).Type()
	for _, iface := range std[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// stdInterfaces indexes, by method name, the non-generic interfaces that
// the standard-library packages the module imports (transitively) export,
// plus error.
func stdInterfaces(pkgs []*analysis.Package, modPath string) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	seen := map[string]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p.Path()] || p.Path() == modPath || strings.HasPrefix(p.Path(), modPath+"/") {
			return
		}
		seen[p.Path()] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				add(iface)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			walk(imp)
		}
	}
	return out
}
