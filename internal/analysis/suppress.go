package analysis

import (
	"go/token"
	"strconv"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file     string
	line     int // line the directive ends on
	checkers map[string]bool
	reason   string
}

const ignorePrefix = "//lint:ignore"

// parseDirectives extracts every //lint:ignore directive from the loaded
// packages. Malformed directives (no checker list or no reason) are
// reported as lint diagnostics themselves so that suppressions stay
// auditable.
func parseDirectives(fset *token.FileSet, pkgs []*Package) (dirs []ignoreDirective, malformed []Diagnostic) {
	seen := make(map[string]bool) // file:line, dedup across test/non-test loads
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, ignorePrefix) {
						continue
					}
					pos := fset.Position(c.End())
					key := pos.Filename + ":" + strconv.Itoa(pos.Line)
					if seen[key] {
						continue
					}
					seen[key] = true
					rest := strings.TrimPrefix(c.Text, ignorePrefix)
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							File: pos.Filename, Line: pos.Line, Col: fset.Position(c.Pos()).Column,
							Checker: "lint", Severity: SeverityError,
							Message: "malformed //lint:ignore: want \"//lint:ignore <checker>[,<checker>] <reason>\"",
						})
						continue
					}
					checkers := make(map[string]bool)
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							checkers[name] = true
						}
					}
					dirs = append(dirs, ignoreDirective{
						file:     pos.Filename,
						line:     pos.Line,
						checkers: checkers,
						reason:   strings.Join(fields[1:], " "),
					})
				}
			}
		}
	}
	return dirs, malformed
}

// suppress filters diags through the directives: a diagnostic is dropped
// when a directive naming its checker sits on the same line or the line
// directly above. Directives that suppress nothing are reported, so stale
// suppressions cannot hide future regressions — except when the directive
// names a checker that is not enabled this run (e.g. under -checkers).
func suppress(diags []Diagnostic, dirs []ignoreDirective, enabled map[string]bool) []Diagnostic {
	type key struct {
		file string
		line int
	}
	index := make(map[key][]*ignoreDirective)
	used := make(map[*ignoreDirective]bool)
	for i := range dirs {
		d := &dirs[i]
		index[key{d.file, d.line}] = append(index[key{d.file, d.line}], d)
	}

	var kept []Diagnostic
	for _, diag := range diags {
		matched := false
		for _, line := range []int{diag.Line, diag.Line - 1} {
			for _, d := range index[key{diag.File, line}] {
				if d.checkers[diag.Checker] {
					matched = true
					used[d] = true
				}
			}
		}
		if !matched {
			kept = append(kept, diag)
		}
	}

	for i := range dirs {
		d := &dirs[i]
		allEnabled := true
		for name := range d.checkers {
			if !enabled[name] {
				allEnabled = false
			}
		}
		if allEnabled && !used[d] {
			kept = append(kept, Diagnostic{
				File: d.file, Line: d.line, Col: 1,
				Checker: "lint", Severity: SeverityWarning,
				Message: "//lint:ignore directive suppresses nothing; delete it",
			})
		}
	}
	return kept
}
