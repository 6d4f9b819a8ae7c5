// Package analysis is a small, stdlib-only static-analysis framework for
// this repository. It exists because every security number the simulator
// produces (Table 3, Figure 2, the mutual-information bounds) is only
// trustworthy if the simulator is bit-reproducible: all randomness must flow
// through the seeded internal/rng streams, map iteration must never order
// observable output, and experiment I/O must never silently truncate.
//
// The framework loads every package in the module (including tests), type
// checks it with go/types, runs a set of pluggable Analyzers over each
// package, and reports structured Diagnostics. Findings can be suppressed
// inline with a justified directive:
//
//	//lint:ignore <checker>[,<checker>...] <reason>
//
// placed on the offending line or the line directly above it. A directive
// without a reason is itself a diagnostic: suppressions must be auditable.
//
// The cmd/rflint driver wires this package to the command line.
package analysis

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/token"
	"io/fs"
	"path/filepath"
)

// Severity classifies how a Diagnostic affects the trustworthiness of
// experiment output.
type Severity int

const (
	// SeverityWarning marks findings that are suspicious but may be
	// intentional (e.g. secret-derived indexing in a package that models a
	// leaky victim on purpose).
	SeverityWarning Severity = iota
	// SeverityError marks findings that break reproducibility or silently
	// corrupt experiment output.
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// ParseSeverity converts the string form used by command-line flags.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "warning":
		return SeverityWarning, nil
	case "error":
		return SeverityError, nil
	default:
		return 0, fmt.Errorf("unknown severity %q (want warning or error)", s)
	}
}

// MarshalJSON emits the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one finding from one checker at one source position.
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Checker  string   `json:"checker"`
	Severity Severity `json:"severity"`
	Message  string   `json:"message"`
	// Trace, when present, is the source→hop→sink witness path behind the
	// finding (interprocedural checkers only). rflint -trace prints it.
	Trace []TraceStep `json:"trace,omitempty"`
}

// TraceStep is one hop of a Diagnostic's witness path.
type TraceStep struct {
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
	Desc string `json:"desc"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s: %s", d.File, d.Line, d.Col, d.Checker, d.Severity, d.Message)
}

// Analyzer is one pluggable checker. Implementations must be stateless
// across packages: Run is called once per loaded package.
type Analyzer interface {
	// Name is the stable identifier used by -checkers and //lint:ignore.
	Name() string
	// Doc is a one-paragraph description of what the checker enforces.
	Doc() string
	// Run inspects one type-checked package and reports findings on pass.
	Run(pass *Pass) error
}

// ModuleAnalyzer is an Analyzer that needs the whole module at once —
// interprocedural analyses whose verdict about one package depends on code
// in another. RunModule is called exactly once per analysis run with every
// loaded package; the per-package Run is still invoked and is typically a
// no-op for implementations of this interface.
type ModuleAnalyzer interface {
	Analyzer
	RunModule(pass *ModulePass) error
}

// ModulePass carries the whole module through one ModuleAnalyzer.
type ModulePass struct {
	Analyzer Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	diags *[]Diagnostic
}

// importer returns the importer that type checked the pass's packages, or
// nil when there are none.
func (p *ModulePass) importer() *moduleImporter {
	for _, pkg := range p.Pkgs {
		if pkg.imp != nil {
			return pkg.imp
		}
	}
	return nil
}

// Module returns the root directory and import path of the module the
// pass's packages were loaded from ("" for both when there are none).
func (p *ModulePass) Module() (root, path string) {
	if imp := p.importer(); imp != nil {
		return imp.root, imp.modPath
	}
	return "", ""
}

// CheckDir type checks the non-test Go files in dir as one package, through
// the importer that checked the pass's packages, so the module's packages
// are not checked again. It is for directories the loader skips, such as a
// nested module that imports this one. It returns nil when dir does not
// exist or holds no non-test Go files; type errors are collected as in Load.
func (p *ModulePass) CheckDir(dir string) (*Package, error) {
	imp := p.importer()
	if imp == nil {
		return nil, nil
	}
	pkgs, err := loadDir(p.Fset, imp, filepath.Base(dir), dir, false)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil || len(pkgs) == 0 {
		return nil, err
	}
	return pkgs[0], nil
}

// Report records a finding at pos with an optional witness trace.
func (p *ModulePass) Report(pos token.Pos, sev Severity, msg string, trace []TraceStep) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Checker:  p.Analyzer.Name(),
		Severity: sev,
		Message:  msg,
		Trace:    trace,
	})
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, sev Severity, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Checker:  p.Analyzer.Name(),
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}
