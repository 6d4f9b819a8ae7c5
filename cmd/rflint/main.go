// Command rflint runs the repository's domain-aware static analysis: the
// determinism, RNG-hygiene, and simulator-invariant checkers in
// internal/analysis/checkers. See DESIGN.md ("Determinism & lint policy"
// and "Taint analysis & the leak manifest").
//
// Usage:
//
//	rflint [flags] [./...|dir]
//
// With no argument (or "./..."), the whole module containing the current
// directory is analyzed, tests included. A directory argument restricts
// reporting to the packages under that directory (the whole module is
// still loaded and analyzed so cross-package taint and types resolve).
// Findings can be suppressed inline with "//lint:ignore <checker> <reason>"
// on the offending line or the line above. Files are selected as `go build`
// selects them (//go:build lines and file-name suffixes under the default
// build context), and a package that does not type check fails the run
// unless -fail-on is never.
//
// The ctflow checker's findings are reconciled against the committed leak
// manifest (LEAKS.json at the module root): findings listed there are the
// victim packages' intentional leaks and are expected; findings not listed
// are new leaks; listed entries with no finding mean a victim stopped
// leaking. Both directions fail the run.
//
// Flags:
//
//	-json              emit diagnostics as a JSON array
//	-checkers a,b,...  run only the named checkers (default: all)
//	-fail-on  sev      exit nonzero at this severity: warning|error|never
//	-tests=false       skip _test.go files
//	-list              print the available checkers and exit
//	-trace             print each finding's source→hop→sink witness path
//	-manifest path     leak manifest ("auto" = <module>/LEAKS.json, "none" = off)
//	-write-manifest    regenerate the leak manifest from current findings
//	-since ref         report only packages with files changed since the git ref
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"randfill/internal/analysis"
	"randfill/internal/analysis/checkers"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		switch {
		case errors.Is(err, errUsage):
			os.Exit(2)
		case !errors.Is(err, errFindings):
			fmt.Fprintln(os.Stderr, "rflint:", err)
		}
		os.Exit(1)
	}
}

var (
	// errUsage reports a command line the flag package rejected; it has
	// already printed why, with the usage.
	errUsage = errors.New("usage")
	// errFindings reports findings at the -fail-on severity, which run
	// has already printed.
	errFindings = errors.New("findings")
)

// run lints the module as the flags in args say, writing findings to
// stdout and type errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	checkerList := fs.String("checkers", "", "comma-separated checkers to run (default all)")
	failOn := fs.String("fail-on", "warning", "exit nonzero at this severity: warning, error, or never")
	tests := fs.Bool("tests", true, "include _test.go files")
	list := fs.Bool("list", false, "list available checkers and exit")
	trace := fs.Bool("trace", false, "print each finding's source→hop→sink witness path")
	manifestFlag := fs.String("manifest", "auto", `leak manifest path ("auto" = <module>/LEAKS.json, "none" = disabled)`)
	writeManifest := fs.Bool("write-manifest", false, "regenerate the leak manifest from current ctflow findings")
	since := fs.String("since", "", "report only packages with files changed since this git ref")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *list {
		for _, az := range checkers.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", az.Name(), az.Doc())
		}
		return nil
	}

	switch *failOn {
	case "warning", "error", "never":
	default:
		return fmt.Errorf("bad -fail-on %q (want warning, error, or never)", *failOn)
	}

	azs := checkers.All()
	if *checkerList != "" {
		var err error
		azs, err = checkers.ByName(*checkerList)
		if err != nil {
			return err
		}
	}

	dir := "."
	switch fs.NArg() {
	case 0:
	case 1:
		if arg := fs.Arg(0); arg != "./..." {
			dir = arg
		}
	default:
		return fmt.Errorf("at most one package argument, got %d", fs.NArg())
	}
	if *since != "" && dir != "." {
		return fmt.Errorf("-since and a directory argument are mutually exclusive")
	}

	modRoot, _, err := analysis.FindModuleRoot(dir)
	if err != nil {
		return err
	}

	// The whole module is always loaded and analyzed — interprocedural
	// taint needs every package — and scoping only restricts what is
	// *reported*.
	fset, pkgs, err := analysis.Load(analysis.LoadConfig{Dir: dir, Tests: *tests})
	if err != nil {
		return err
	}

	// scope is the set of package directories to report on; nil = all.
	var scope map[string]bool
	if dir != "." {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return err
		}
		scope = map[string]bool{}
		for _, pkg := range pkgs {
			if pkg.Dir == abs || strings.HasPrefix(pkg.Dir, abs+string(filepath.Separator)) {
				scope[pkg.Dir] = true
			}
		}
		if len(scope) == 0 {
			// testdata/vendor/hidden dirs are skipped; "clean" would be a lie here.
			return fmt.Errorf("no Go packages found under %s", dir)
		}
	}
	if *since != "" {
		scope, err = changedScope(modRoot, *since, pkgs)
		if err != nil {
			return err
		}
		if scope != nil && len(scope) == 0 {
			fmt.Fprintf(stdout, "rflint: no packages changed since %s\n", *since)
			return nil
		}
	}

	// A package that does not type check is analysed without the types it
	// lacks, so its findings cannot be trusted: report every type error
	// and fail the run, whatever the findings.
	typeErrors := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "rflint: %s: type error (analysis degraded): %v\n", pkg.Path, terr)
			typeErrors++
		}
	}

	diags, err := analysis.Run(fset, pkgs, azs)
	if err != nil {
		return err
	}
	if scope != nil {
		var kept []analysis.Diagnostic
		for _, d := range diags {
			if scope[filepath.Dir(d.File)] {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	// Reconcile ctflow findings with the leak manifest.
	manifestPath := ""
	switch *manifestFlag {
	case "none":
	case "auto", "":
		p := filepath.Join(modRoot, analysis.ManifestName)
		if _, err := os.Stat(p); err == nil || *writeManifest {
			manifestPath = p
		}
	default:
		manifestPath = *manifestFlag
	}
	if *writeManifest {
		if manifestPath == "" {
			return fmt.Errorf("-write-manifest needs a manifest path (-manifest is %q)", *manifestFlag)
		}
		old, _ := analysis.LoadManifest(manifestPath)
		m := analysis.BuildManifest(diags, modRoot, old)
		if err := m.WriteManifest(manifestPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rflint: wrote %d leak sites to %s\n", len(m.Leaks), manifestPath)
	}
	if manifestPath != "" {
		m, err := analysis.LoadManifest(manifestPath)
		if err != nil {
			return err
		}
		var inScope func(string) bool
		if scope != nil {
			inScope = func(rel string) bool {
				return scope[filepath.Join(modRoot, filepath.FromSlash(filepath.Dir(rel)))]
			}
		}
		diags = m.Apply(diags, modRoot, inScope)
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return err
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
			if *trace {
				for _, s := range d.Trace {
					if s.File != "" {
						fmt.Fprintf(stdout, "    %s:%d: %s\n", s.File, s.Line, s.Desc)
					} else {
						fmt.Fprintf(stdout, "    %s\n", s.Desc)
					}
				}
			}
		}
		if len(diags) == 0 && typeErrors == 0 {
			fmt.Fprintln(stdout, "rflint: clean")
		}
	}

	if *failOn == "never" {
		return nil
	}
	if typeErrors > 0 {
		return fmt.Errorf("%d type errors: the module must type check to be linted", typeErrors)
	}
	threshold, err := analysis.ParseSeverity(*failOn)
	if err != nil {
		return err
	}
	for _, d := range diags {
		if d.Severity >= threshold {
			return errFindings
		}
	}
	return nil
}

// changedScope maps `git diff --name-only <ref>` (plus untracked files) to
// the set of package directories to report on. A change to the analysis
// framework, the checkers, this command, or go.mod invalidates every
// package's verdict, so those return a nil scope (= full lint).
//
// Both git commands run in modRoot, and the diff uses --relative with a
// `.` pathspec so paths come back relative to the module root even when
// the module lives in a subdirectory of the git repository (git's default
// is top-level-relative paths, which would map to nonexistent dirs and
// silently empty the scope). ls-files is cwd-relative already.
func changedScope(modRoot, ref string, pkgs []*analysis.Package) (map[string]bool, error) {
	files, err := gitLines(modRoot, "diff", "--name-only", "--relative", ref, "--", ".")
	if err != nil {
		return nil, fmt.Errorf("-since %s: %w", ref, err)
	}
	untracked, err := gitLines(modRoot, "ls-files", "--others", "--exclude-standard")
	if err != nil {
		return nil, fmt.Errorf("-since %s: %w", ref, err)
	}
	files = append(files, untracked...)

	byDir := map[string]bool{}
	for _, pkg := range pkgs {
		byDir[pkg.Dir] = false
	}
	scope := map[string]bool{}
	for _, f := range files {
		if f == "go.mod" || f == "go.sum" ||
			strings.HasPrefix(f, "internal/analysis/") ||
			strings.HasPrefix(f, "cmd/rflint/") {
			return nil, nil // the lint rules themselves changed: full lint
		}
		dir := filepath.Join(modRoot, filepath.FromSlash(filepath.Dir(f)))
		if _, ok := byDir[dir]; ok {
			scope[dir] = true
		}
	}
	return scope, nil
}

func gitLines(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var out, errBuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("git %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(errBuf.String()))
	}
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		if l = strings.TrimSpace(l); l != "" {
			lines = append(lines, l)
		}
	}
	return lines, nil
}
