package analysis

import (
	"go/token"
	"sort"
)

// Run executes every analyzer over every package, applies //lint:ignore
// suppression, and returns the surviving diagnostics sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	enabled := make(map[string]bool, len(analyzers))
	for _, az := range analyzers {
		enabled[az.Name()] = true
	}
	if err := runAll(fset, pkgs, analyzers, &diags); err != nil {
		return nil, err
	}

	dirs, malformed := parseDirectives(fset, pkgs)
	diags = suppress(diags, dirs, enabled)
	diags = append(diags, malformed...)

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Checker < b.Checker
	})
	return diags, nil
}

// runAll drives per-package analyzers over every package, and module
// analyzers once over the whole package set.
func runAll(fset *token.FileSet, pkgs []*Package, analyzers []Analyzer, diags *[]Diagnostic) error {
	for _, pkg := range pkgs {
		for _, az := range analyzers {
			pass := &Pass{Analyzer: az, Fset: fset, Pkg: pkg, diags: diags}
			if err := az.Run(pass); err != nil {
				return err
			}
		}
	}
	for _, az := range analyzers {
		ma, ok := az.(ModuleAnalyzer)
		if !ok {
			continue
		}
		mp := &ModulePass{Analyzer: az, Fset: fset, Pkgs: pkgs, diags: diags}
		if err := ma.RunModule(mp); err != nil {
			return err
		}
	}
	return nil
}
