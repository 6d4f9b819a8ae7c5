package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package plus its syntax trees.
type Package struct {
	// Path is the import path ("randfill/internal/cache"); external test
	// packages get a "_test" suffix ("randfill/internal/cache_test").
	Path string
	// Dir is the absolute directory holding the sources.
	Dir string
	// Files holds the parsed syntax, in file-name order.
	Files []*ast.File
	// Types and Info are the go/types results. Info is always non-nil and
	// populated as far as type checking succeeded; checkers must tolerate
	// missing entries (TypeOf returning nil) for code that failed to check.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects type-check problems (best effort: analysis
	// continues past them).
	TypeErrors []error

	imp *moduleImporter // the loader's importer, for ModulePass.CheckDir
}

// LoadConfig controls module loading.
type LoadConfig struct {
	// Dir is any directory inside the module; the loader walks up to the
	// enclosing go.mod. Defaults to ".".
	Dir string
	// Tests includes _test.go files (in-package test files join their
	// package; external foo_test packages load separately).
	Tests bool
}

// Load walks the module containing cfg.Dir and returns every package in it,
// type checked against a shared file set. Directories named testdata or
// vendor, and directories starting with "." or "_", are skipped.
func Load(cfg LoadConfig) (*token.FileSet, []*Package, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	imp := newModuleImporter(fset, modPath, root)

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(dirs)

	var pkgs []*Package
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		loaded, err := loadDir(fset, imp, path, d, cfg.Tests)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", d, err)
		}
		pkgs = append(pkgs, loaded...)
	}
	return fset, pkgs, nil
}

// LoadDir loads the single package (plus its external test package, if
// Tests is set) rooted at cfg.Dir without walking the whole module. Used by
// the analyzer test harness on testdata directories.
//
//lint:ignore unused test support: the checker-corpus harness in analysis_test loads each corpus directory through it
func LoadDir(cfg LoadConfig) (*token.FileSet, []*Package, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	imp := newModuleImporter(fset, modPath, root)
	pkgs, err := loadDir(fset, imp, "testpkg/"+filepath.Base(abs), abs, cfg.Tests)
	if err != nil {
		return nil, nil, err
	}
	return fset, pkgs, nil
}

// loadDir parses and type checks the package in dir. It returns one Package
// for the primary package (including in-package test files when tests is
// set) and, when present, one more for the external _test package.
func loadDir(fset *token.FileSet, imp *moduleImporter, path, dir string, tests bool) ([]*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	var prim, ext []*ast.File
	for _, name := range names {
		isTest := strings.HasSuffix(name, "_test.go")
		if isTest && !tests {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			prim = append(prim, f)
		}
	}

	var out []*Package
	if len(prim) > 0 {
		out = append(out, checkPackage(fset, imp, path, dir, prim))
	}
	if len(ext) > 0 {
		out = append(out, checkPackage(fset, imp, path+"_test", dir, ext))
	}
	return out, nil
}

// checkPackage runs go/types over files, collecting rather than failing on
// type errors so that analysis degrades gracefully.
func checkPackage(fset *token.FileSet, imp *moduleImporter, path, dir string, files []*ast.File) *Package {
	pkg := &Package{Path: path, Dir: dir, Files: files, imp: imp}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, fset, files, pkg.Info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	return pkg
}

// moduleImporter resolves imports during type checking: paths inside the
// module are type checked from source (module-aware, which the stdlib
// source importer is not), everything else (the standard library) is
// delegated to go/importer's source importer.
type moduleImporter struct {
	fset    *token.FileSet
	modPath string
	root    string
	std     types.ImporterFrom
	cache   map[string]*types.Package
}

func newModuleImporter(fset *token.FileSet, modPath, root string) *moduleImporter {
	return &moduleImporter{
		fset:    fset,
		modPath: modPath,
		root:    root,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:   make(map[string]*types.Package),
	}
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, m.root, 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := m.cache[path]; ok {
		return pkg, nil
	}
	if path != m.modPath && !strings.HasPrefix(path, m.modPath+"/") {
		pkg, err := m.std.ImportFrom(path, dir, mode)
		if err != nil {
			return nil, err
		}
		m.cache[path] = pkg
		return pkg, nil
	}

	rel := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
	pdir := filepath.Join(m.root, filepath.FromSlash(rel))
	names, err := goFileNames(pdir)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(pdir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("import %q: no Go files in %s", path, pdir)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, nil)
	if err != nil {
		return nil, err
	}
	m.cache[path] = pkg
	return pkg, nil
}

// FindModuleRoot walks up from dir to the enclosing go.mod and returns the
// module root directory and module path. cmd/rflint uses it to locate the
// leak manifest and to resolve -since changed paths.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	return findModule(dir)
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path := parseModulePath(string(data))
			if path == "" {
				return "", "", fmt.Errorf("no module directive in %s/go.mod", d)
			}
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}

func parseModulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

func hasGoFiles(dir string) bool {
	names, err := goFileNames(dir)
	return err == nil && len(names) > 0
}

// goFileNames returns the Go files in dir that `go build` compiles under
// the default build context, tests included: go/build's MatchFile applies
// the //go:build lines and the _GOOS/_GOARCH file-name suffixes, so a
// package that declares one name in a race file and again in a !race file
// loads as the compiler sees it, and a //go:build ignore program is left
// out.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
