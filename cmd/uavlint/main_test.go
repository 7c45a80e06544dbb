package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleIsClean is the self-test the CI job relies on: the suite must
// exit 0 over the repo's own tree. Any new violation fails here (and in the
// static-analysis job) with the offending position.
func TestModuleIsClean(t *testing.T) {
	t.Parallel()
	var out, errb strings.Builder
	if code := run([]string{"-C", "../..", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("uavlint over the module: exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// seedModule writes a throwaway module under the uavnet module path prefix
// (the scoped analyzers only police our own packages) and returns its dir.
func seedModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module github.com/uav-coverage/uavnet/seeded\n\ngo 1.22\n"
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeededViolationFails proves each analyzer turns a live violation into
// exit 1 with a diagnostic naming it — one throwaway module per analyzer,
// including one for every analyzer added by the fact-layer suite.
func TestSeededViolationFails(t *testing.T) {
	t.Parallel()
	cases := []struct {
		analyzer string
		files    map[string]string
		wantText string
	}{
		{
			analyzer: "detorder",
			files: map[string]string{
				"go.mod": "module example.com/lintme\n\ngo 1.22\n",
				"lib.go": "package lintme\n\nimport \"math/rand\"\n\nfunc Roll() int { return rand.Intn(6) }\n",
			},
			wantText: "rand.Intn",
		},
		{
			analyzer: "lockguard",
			files: map[string]string{
				"lib.go": `package seeded

import "sync"

type S struct {
	mu sync.Mutex
	n  int //uavlint:guard mu
}

func (s *S) Bump() {
	s.mu.Lock()
	s.mu.Unlock()
	s.n++
}
`,
			},
			wantText: "without holding S.mu",
		},
		{
			analyzer: "golife",
			files: map[string]string{
				"lib.go": "package seeded\n\nfunc Leak() {\n\tgo func() {}()\n}\n",
			},
			wantText: "unjoined goroutine",
		},
		{
			analyzer: "atomicwrite",
			files: map[string]string{
				"lib.go": "package seeded\n\nimport \"os\"\n\nfunc Save(p string, b []byte) error {\n\treturn os.WriteFile(p, b, 0o644)\n}\n",
			},
			wantText: "raw os.WriteFile",
		},
		{
			analyzer: "errdrop",
			files: map[string]string{
				"lib.go": "package seeded\n\nimport \"os\"\n\nfunc Close(f *os.File) {\n\tf.Close()\n}\n",
			},
			wantText: "discards its error result",
		},
		{
			analyzer: "testonly",
			files: map[string]string{
				"internal/lib/lib.go":      "package lib\n\nfunc Used() int { return 1 }\n\nfunc Orphan() int { return 2 }\n",
				"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestOrphan(t *testing.T) { _ = Orphan() }\n",
				"main.go":                  "package main\n\nimport \"github.com/uav-coverage/uavnet/seeded/internal/lib\"\n\nfunc main() { _ = lib.Used() }\n",
			},
			wantText: "Orphan is referenced only by tests",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.analyzer, func(t *testing.T) {
			t.Parallel()
			dir := seedModule(t, tc.files)
			var out, errb strings.Builder
			code := run([]string{"-C", dir, "-only", tc.analyzer, "./..."}, &out, &errb)
			if code != 1 {
				t.Fatalf("expected exit 1 on seeded %s violation, got %d\nstdout:\n%s\nstderr:\n%s", tc.analyzer, code, out.String(), errb.String())
			}
			if !strings.Contains(out.String(), tc.wantText) || !strings.Contains(out.String(), "("+tc.analyzer+")") {
				t.Fatalf("diagnostic should mention %q and the %s analyzer, got:\n%s", tc.wantText, tc.analyzer, out.String())
			}
		})
	}
}

// TestJSONOutput proves -json emits the machine-readable shape CI uploads:
// every field populated, same exit semantics as the text mode.
func TestJSONOutput(t *testing.T) {
	t.Parallel()
	dir := seedModule(t, map[string]string{
		"lib.go": "package seeded\n\nfunc Leak() {\n\tgo func() {}()\n}\n",
	})
	var out, errb strings.Builder
	code := run([]string{"-C", dir, "-json", "-only", "golife", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("expected exit 1, got %d\nstderr:\n%s", code, errb.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, out.String())
	}
	if len(diags) != 1 {
		t.Fatalf("expected 1 diagnostic, got %d:\n%s", len(diags), out.String())
	}
	d := diags[0]
	if !strings.HasSuffix(d.File, "lib.go") || d.Line != 4 || d.Col == 0 ||
		d.Analyzer != "golife" || !strings.Contains(d.Message, "unjoined goroutine") {
		t.Fatalf("unexpected diagnostic fields: %+v", d)
	}
}

// TestJSONOutputCleanModule: a clean run under -json emits an empty array
// (not nothing), so CI's artifact step always has a parseable file.
func TestJSONOutputCleanModule(t *testing.T) {
	t.Parallel()
	dir := seedModule(t, map[string]string{
		"lib.go": "package seeded\n\nfunc Fine() int { return 1 }\n",
	})
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-json", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("expected exit 0, got %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Fatalf("clean -json run should print an empty array, got:\n%s", out.String())
	}
}

// TestFactsFlag smoke-tests the -facts debug dump over a seeded module.
func TestFactsFlag(t *testing.T) {
	t.Parallel()
	dir := seedModule(t, map[string]string{
		"lib.go": `package seeded

import "sync"

type S struct {
	mu sync.Mutex
	n  int //uavlint:guard mu
}

func (s *S) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
`,
	})
	var out, errb strings.Builder
	if code := run([]string{"-C", dir, "-facts", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("-facts: exit %d\nstderr:\n%s", code, errb.String())
	}
	for _, want := range []string{
		"guard github.com/uav-coverage/uavnet/seeded.S.n -> github.com/uav-coverage/uavnet/seeded.S.mu (mutex)",
		"acquires=github.com/uav-coverage/uavnet/seeded.S.mu",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-facts output missing %q:\n%s", want, out.String())
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	t.Parallel()
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list: exit %d, stderr %s", code, errb.String())
	}
	for _, name := range []string{
		"detorder", "floatcast", "ctxthread", "epochscratch", "timenow",
		"lockguard", "golife", "atomicwrite", "errdrop", "testonly",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	t.Parallel()
	var out, errb strings.Builder
	if code := run([]string{"-only", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("expected usage exit 2 for unknown analyzer, got %d", code)
	}
	if !strings.Contains(errb.String(), "nosuch") {
		t.Errorf("error should name the unknown analyzer, got: %s", errb.String())
	}
}
