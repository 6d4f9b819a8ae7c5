package checkers

import (
	"go/token"
	"strings"

	"randfill/internal/analysis"
	"randfill/internal/analysis/flow"
)

// ctflow is the interprocedural secret-taint checker: it proves, rather
// than pattern-matches, where secrets reach memory indices, branch
// conditions, or variable-latency operations. ctindex remains as the
// cheap per-package name heuristic; ctflow follows the actual dataflow —
// through assignments, struct fields, and call chains — and carries a
// source→hop→sink witness on every finding (rflint -trace prints it).
//
// The committed leak manifest (LEAKS.json at the module root) is the
// golden inventory of expected findings: the victim packages MUST leak at
// exactly their known sites (the attacks depend on it) and everything
// else must be clean. rflint reconciles the two; a new finding or a
// missing one both fail the build.
type ctflow struct{}

func (ctflow) Name() string { return "ctflow" }

func (ctflow) Doc() string {
	return "interprocedural taint analysis: secrets must not reach array indices, branches, or div/mod outside the manifest-inventoried victim sites"
}

// Run is a no-op: ctflow needs the whole module at once (RunModule).
func (ctflow) Run(pass *analysis.Pass) error { return nil }

// ctflowSeedPkgs are the packages where a secret-looking parameter name
// alone seeds taint: the designated victims, plus the checker's own test
// corpus. Everywhere else seeding requires an explicit //ctflow:secret
// annotation, so a harness variable named "key" does not flood the module
// with findings.
var ctflowSeedPkgs = append([]string{"testpkg/ctflow"}, ctindexVictims...)

func (ctflow) RunModule(mp *analysis.ModulePass) error {
	var pkgs []*flow.PackageInfo
	for _, p := range mp.Pkgs {
		if p.Types == nil || strings.HasSuffix(p.Path, "_test") {
			// External test packages exercise the victims with secrets the
			// test itself chose; the leak model covers the victims' code.
			continue
		}
		pkgs = append(pkgs, &flow.PackageInfo{
			Path:  p.Path,
			Files: p.Files,
			Types: p.Types,
			Info:  p.Info,
		})
	}
	findings := flow.Analyze(flow.Config{
		Fset: mp.Fset,
		Pkgs: pkgs,
		SeedPackage: func(path string) bool {
			for _, suffix := range ctflowSeedPkgs {
				if pathHasSuffix(path, suffix) {
					return true
				}
			}
			return false
		},
		SkipSinkFile: func(filename string) bool {
			return strings.HasSuffix(filename, "_test.go")
		},
		// Soundness warnings (today: the 64-parameter summary cap) become
		// ordinary diagnostics, so an untrackable signature fails lint
		// instead of silently dropping taint. The message deliberately
		// matches no manifest kind prefix, so reconciliation passes it
		// through.
		Warn: func(pos token.Pos, msg string) {
			mp.Report(pos, analysis.SeverityWarning, msg, nil)
		},
	})
	for _, f := range findings {
		var trace []analysis.TraceStep
		for _, s := range f.Steps {
			ts := analysis.TraceStep{Desc: s.Desc}
			if s.Pos.IsValid() {
				pos := mp.Fset.Position(s.Pos)
				ts.File, ts.Line = pos.Filename, pos.Line
			}
			trace = append(trace, ts)
		}
		mp.Report(f.Pos, analysis.SeverityWarning,
			CtflowKindPrefix(f.Kind.String())+" "+f.Expr+" (secret: "+f.Source+")", trace)
	}
	return nil
}

// CtflowKindPrefix returns the message prefix ctflow uses for a sink kind.
// The manifest reconciliation recovers the kind from this prefix, so the
// mapping is part of the checker's stable output format.
func CtflowKindPrefix(kind string) string {
	switch kind {
	case "index":
		return "secret-dependent index:"
	case "branch":
		return "secret-dependent branch:"
	case "divmod":
		return "secret-dependent div/mod:"
	}
	return "secret-dependent " + kind + ":"
}
