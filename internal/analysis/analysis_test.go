package analysis_test

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"randfill/internal/analysis"
	"randfill/internal/analysis/checkers"
)

// wantRe matches the corpus expectation syntax: // want "substring"
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	file   string
	line   int
	substr string
}

func loadCorpus(t *testing.T, dir string) (*token.FileSet, []*analysis.Package) {
	t.Helper()
	cfg := analysis.LoadConfig{Dir: filepath.Join("testdata", "src", dir)}
	load := analysis.LoadDir
	// A corpus with its own go.mod is a module: load all of it, tests
	// included, so that its packages reach each other through the
	// loader's importer as the real module's packages do.
	if _, err := os.Stat(filepath.Join(cfg.Dir, "go.mod")); err == nil {
		cfg.Tests = true
		load = analysis.Load
	}
	fset, pkgs, err := load(cfg)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Fatalf("corpus %s must type check, got: %v", dir, e)
		}
	}
	return fset, pkgs
}

func parseExpectations(fset *token.FileSet, pkgs []*analysis.Package) []expectation {
	var wants []expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					wants = append(wants, expectation{file: pos.Filename, line: pos.Line, substr: m[1]})
				}
			}
		}
	}
	return wants
}

func analyzerByName(t *testing.T, name string) analysis.Analyzer {
	t.Helper()
	for _, az := range checkers.All() {
		if az.Name() == name {
			return az
		}
	}
	t.Fatalf("no checker named %q", name)
	return nil
}

// TestCheckerCorpus runs each checker over its seeded-violation corpus and
// requires an exact match: every // want is detected, and nothing else is
// reported (no false positives on the approved patterns in the same file).
// Suppression applies, so a corpus can seed a justified finding that must
// stay silent.
func TestCheckerCorpus(t *testing.T) {
	cases := []struct{ dir, checker string }{
		{"detrand", "detrand"},
		{"maporder", "maporder"},
		{"rngshare", "rngshare"},
		{"errcheckio", "errcheck-io"},
		{"ctindex", "ctindex"},
		{"ctflow", "ctflow"},
		{"sim", "simlayer"},
		{"securecache", "simlayer"},
		{"atomicwrite", "atomicwrite"},
		{"unused", "unused"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			fset, pkgs := loadCorpus(t, tc.dir)
			az := analyzerByName(t, tc.checker)
			diags, err := analysis.Run(fset, pkgs, []analysis.Analyzer{az})
			if err != nil {
				t.Fatal(err)
			}
			wants := parseExpectations(fset, pkgs)
			if len(wants) == 0 {
				t.Fatal("corpus has no // want expectations")
			}

			matchedDiag := make([]bool, len(diags))
			for _, w := range wants {
				found := false
				for i, d := range diags {
					if d.File == w.file && d.Line == w.line && strings.Contains(d.Message, w.substr) {
						matchedDiag[i] = true
						found = true
					}
				}
				if !found {
					t.Errorf("%s:%d: want diagnostic containing %q, got none", w.file, w.line, w.substr)
				}
			}
			for i, d := range diags {
				if !matchedDiag[i] {
					t.Errorf("unexpected diagnostic (false positive in corpus): %s", d)
				}
			}
		})
	}
}

// renamed reports an analyzer's findings under another checker name, which
// no //lint:ignore directive names.
type renamed struct{ analysis.Analyzer }

func (renamed) Name() string { return "renamed" }

// TestSuppression proves //lint:ignore silences a finding that the raw run
// detects.
func TestSuppression(t *testing.T) {
	fset, pkgs := loadCorpus(t, "suppress")
	az := analyzerByName(t, "detrand")

	raw, err := analysis.Run(fset, pkgs, []analysis.Analyzer{renamed{az}})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 || !strings.Contains(raw[0].Message, "time.Now") {
		t.Fatalf("unsuppressed run: want exactly the seeded time.Now finding, got %v", raw)
	}

	filtered, err := analysis.Run(fset, pkgs, []analysis.Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 0 {
		t.Fatalf("//lint:ignore did not suppress: %v", filtered)
	}
}

// TestDirectiveHygiene: a malformed directive and a stale (unused)
// directive are both reported by the framework itself.
func TestDirectiveHygiene(t *testing.T) {
	fset, pkgs := loadCorpus(t, "directives")
	diags, err := analysis.Run(fset, pkgs, []analysis.Analyzer{analyzerByName(t, "detrand")})
	if err != nil {
		t.Fatal(err)
	}
	var sawMalformed, sawStale bool
	for _, d := range diags {
		if d.Checker != "lint" {
			t.Errorf("unexpected checker %q in directive corpus: %s", d.Checker, d)
		}
		if strings.Contains(d.Message, "malformed") {
			sawMalformed = true
		}
		if strings.Contains(d.Message, "suppresses nothing") {
			sawStale = true
		}
	}
	if !sawMalformed {
		t.Error("malformed //lint:ignore not reported")
	}
	if !sawStale {
		t.Error("stale //lint:ignore not reported")
	}
}

// TestStaleDirectiveNotReportedForDisabledChecker: when the named checker
// is not part of the run, an unused directive is not called stale.
func TestStaleDirectiveNotReportedForDisabledChecker(t *testing.T) {
	fset, pkgs := loadCorpus(t, "suppress")
	diags, err := analysis.Run(fset, pkgs, []analysis.Analyzer{analyzerByName(t, "maporder")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("detrand directive wrongly reported stale when detrand is disabled: %s", d)
		}
	}
}

// TestWholeModuleIsClean is the acceptance criterion as a test: the repo
// itself must stay lint-clean (fixed or explicitly suppressed), with the
// ctflow findings reconciled against the committed leak manifest — the
// victims must leak at exactly the inventoried sites, nowhere else.
func TestWholeModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type checks the whole module")
	}
	modRoot, _, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs, err := analysis.Load(analysis.LoadConfig{Dir: ".", Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, e := range p.TypeErrors {
			t.Errorf("%s does not type check, so its analysis is degraded: %v", p.Path, e)
		}
	}
	diags, err := analysis.Run(fset, pkgs, checkers.All())
	if err != nil {
		t.Fatal(err)
	}
	m, err := analysis.LoadManifest(filepath.Join(modRoot, analysis.ManifestName))
	if err != nil {
		t.Fatalf("loading leak manifest: %v", err)
	}
	if len(m.Leaks) == 0 {
		t.Fatal("leak manifest is empty: the victims should leak somewhere")
	}
	diags = m.Apply(diags, modRoot, nil)
	for _, d := range diags {
		t.Errorf("repository not lint-clean: %s", d)
	}
}

// TestLoadHonorsBuildConstraints loads a package that declares one name in
// a race file and again in a !race file, imports a package that does the
// same, and shares its directory with a //go:build ignore program. Files
// selected as `go build` selects them type check; all of them would not.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	fset, pkgs, err := analysis.LoadDir(analysis.LoadConfig{Dir: filepath.Join("testdata", "src", "buildtags")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	for _, e := range pkgs[0].TypeErrors {
		t.Errorf("type error: %v", e)
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(fset.Position(f.Pos()).Filename))
	}
	if want := []string{"buildtags.go", "race_off.go"}; strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("loaded files %v, want %v", names, want)
	}
}

// TestLoadReportsTypeErrors requires a package that does not type check to
// load with its error in TypeErrors, which fails rflint and
// TestWholeModuleIsClean.
func TestLoadReportsTypeErrors(t *testing.T) {
	_, pkgs, err := analysis.LoadDir(analysis.LoadConfig{Dir: filepath.Join("testdata", "src", "typeerror")})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || len(pkgs[0].TypeErrors) == 0 {
		t.Fatalf("loaded %d packages with no type error, want the corpus's one", len(pkgs))
	}
	if msg := pkgs[0].TypeErrors[0].Error(); !strings.Contains(msg, "cannot use") {
		t.Errorf("type error %q, want the string assigned to an int", msg)
	}
}

func TestCheckerRegistry(t *testing.T) {
	if got := len(checkers.All()); got < 5 {
		t.Fatalf("registry has %d checkers, want >= 5", got)
	}
	azs, err := checkers.ByName("detrand, errcheck-io")
	if err != nil || len(azs) != 2 {
		t.Fatalf("ByName: %v %v", azs, err)
	}
	if _, err := checkers.ByName("nonesuch"); err == nil {
		t.Error("unknown checker name accepted")
	}
	for _, az := range checkers.All() {
		if az.Name() == "" || az.Doc() == "" {
			t.Errorf("checker %T missing name or doc", az)
		}
	}
}
