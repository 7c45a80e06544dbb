// Package analysistest runs an analyzer over a testdata fixture package and
// checks its diagnostics against // want expectations, mirroring the
// golang.org/x/tools/go/analysis/analysistest contract on the standard
// library only.
//
// A fixture lives in testdata/src/<name>/ and is an ordinary Go package
// (testdata is invisible to ./... patterns, so fixtures never build with the
// module). Expectations are comments of the form
//
//	code() // want `regexp` `second regexp`
//
// each regexp must be matched by a distinct diagnostic on that line, and
// every diagnostic must be claimed by some expectation; anything else fails
// the test. Because several analyzers scope themselves by import path, Run
// takes the package path the fixture should pretend to be. An analyzer that
// looks across packages (testonly) gets a whole module instead, through
// RunModule.
package analysistest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/uav-coverage/uavnet/internal/analysis"
)

// TestData returns the testdata directory of the caller's package.
//
//uavlint:allow testonly -- the analyzer fixture tests of internal/analysis
func TestData(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(wd, "testdata")
}

// wantRE matches one backquoted regexp of a want comment (the x/tools
// analysistest convention).
var wantRE = regexp.MustCompile("`([^`]+)`")

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// exportCache memoizes `go list -export` lookups of dependency export data
// across fixtures, keyed by import path.
var exportCache = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

// exportsFor resolves export-data files for the given import paths (and
// their dependencies), consulting the process-wide cache first.
func exportsFor(t *testing.T, dir string, imports []string) map[string]string {
	t.Helper()
	exportCache.Lock()
	defer exportCache.Unlock()
	missing := false
	for _, p := range imports {
		if _, ok := exportCache.m[p]; !ok {
			missing = true
			break
		}
	}
	if missing {
		listed, err := analysis.GoList(dir, imports)
		if err != nil {
			t.Fatalf("resolving fixture imports %v: %v", imports, err)
		}
		for _, p := range listed {
			if p.Export != "" {
				exportCache.m[p.ImportPath] = p.Export
			}
		}
	}
	out := make(map[string]string, len(exportCache.m))
	for k, v := range exportCache.m {
		out[k] = v
	}
	return out
}

// Run loads testdata/src/<fixture>, type-checks it as package pkgPath, runs
// the analyzer (with //uavlint:allow suppression applied, so fixtures can
// exercise the escape hatch), and enforces the // want expectations.
//
//uavlint:allow testonly -- the analyzer fixture tests of internal/analysis
func Run(t *testing.T, testdata string, a *analysis.Analyzer, fixture, pkgPath string) {
	t.Helper()
	filenames, diags := load(t, testdata, a, fixture, pkgPath)
	checkExpectations(t, filenames, diags)
}

// RunExpectClean runs the analyzer over the fixture under pkgPath and
// requires zero diagnostics, ignoring the fixture's want expectations. Use
// it to prove a package-scoped analyzer stays silent outside its scope even
// on violation-dense code.
//
//uavlint:allow testonly -- the analyzer fixture tests of internal/analysis
func RunExpectClean(t *testing.T, testdata string, a *analysis.Analyzer, fixture, pkgPath string) {
	t.Helper()
	_, diags := load(t, testdata, a, fixture, pkgPath)
	for _, d := range diags {
		t.Errorf("analyzer %s should be out of scope for package %s, yet reported %s", a.Name, pkgPath, d)
	}
}

// RunModule loads the Go module at dir as cmd/uavlint does — its packages
// as targets, the modules nested in it as users — runs the analyzer over
// it, and enforces the // want expectations of every loaded file.
//
//uavlint:allow testonly -- the analyzer fixture tests of internal/analysis
func RunModule(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	patterns := []string{"./..."}
	pkgs, err := analysis.LoadPackages(dir, patterns)
	if err != nil {
		t.Fatalf("loading fixture module %s: %v", dir, err)
	}
	users, err := analysis.LoadUsers(dir, patterns, pkgs)
	if err != nil {
		t.Fatalf("loading users of fixture module %s: %v", dir, err)
	}
	diags, _, err := analysis.RunPackages(pkgs, users, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	var filenames []string
	for _, p := range append(pkgs, users...) {
		for _, f := range p.Files {
			filenames = append(filenames, p.Fset.File(f.Pos()).Name())
		}
	}
	checkExpectations(t, filenames, diags)
}

// load does the shared fixture work: parse, type-check as pkgPath, run the
// analyzer with suppression applied.
func load(t *testing.T, testdata string, a *analysis.Analyzer, fixture, pkgPath string) ([]string, []analysis.Diagnostic) {
	t.Helper()
	dir := filepath.Join(testdata, "src", fixture)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture %s: %v", dir, err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		t.Fatalf("fixture %s has no .go files", dir)
	}
	sort.Strings(filenames)

	fset := token.NewFileSet()
	pkg, err := typeCheckFixture(t, fset, pkgPath, filenames, dir)
	if err != nil {
		t.Fatalf("fixture %s: %v", fixture, err)
	}
	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
	}
	return filenames, diags
}

// typeCheckFixture parses the files once (imports only) to learn their
// dependencies, resolves those to export data, then delegates to the
// framework's TypeCheck.
func typeCheckFixture(t *testing.T, fset *token.FileSet, pkgPath string, filenames []string, dir string) (*analysis.Package, error) {
	t.Helper()
	importSet := map[string]bool{}
	for _, fn := range filenames {
		f, err := parser.ParseFile(token.NewFileSet(), fn, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing fixture imports of %s: %v", fn, err)
		}
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	var imports []string
	for p := range importSet {
		imports = append(imports, p)
	}
	sort.Strings(imports)
	var exports map[string]string
	if len(imports) > 0 {
		exports = exportsFor(t, dir, imports)
	}
	return analysis.TypeCheck(fset, pkgPath, filenames, analysis.ExportImporter(fset, exports))
}

// checkExpectations parses // want comments out of the fixture sources and
// reconciles them with the diagnostics.
func checkExpectations(t *testing.T, filenames []string, diags []analysis.Diagnostic) {
	t.Helper()
	expected := map[string]map[int][]*expectation{}
	for _, fn := range filenames {
		src, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		perLine := map[int][]*expectation{}
		for i, line := range strings.Split(string(src), "\n") {
			_, spec, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(spec, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", fn, i+1, m[1], err)
				}
				perLine[i+1] = append(perLine[i+1], &expectation{re: re})
			}
		}
		if len(perLine) > 0 {
			expected[fn] = perLine
		}
	}
	for _, d := range diags {
		exps := expected[d.Pos.Filename][d.Pos.Line]
		claimed := false
		for _, e := range exps {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for fn, perLine := range expected {
		var lines []int
		for l := range perLine {
			lines = append(lines, l)
		}
		sort.Ints(lines)
		for _, l := range lines {
			for _, e := range perLine[l] {
				if !e.matched {
					t.Errorf("%s:%d: expected diagnostic matching %q, got none", fn, l, e.re)
				}
			}
		}
	}
}
