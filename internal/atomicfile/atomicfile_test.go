package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// noTemps fails the test if a *.tmp-* file of base is left in dir.
func noTemps(t *testing.T, dir, base string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, base+".tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

func TestWriteFileReplacesContentAndMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	if err := WriteFile(path, []byte("first"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "second" {
		t.Errorf("content %q, want %q", data, "second")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if mode := info.Mode().Perm(); mode != 0o644 {
		t.Errorf("mode %v, want %v", mode, os.FileMode(0o644))
	}
	noTemps(t, dir, "f.json")
}

// TestWriteFileFailureLeavesTargetUntouched makes the final rename fail:
// the target is a non-empty directory, which no file can replace.
func TestWriteFileFailureLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.json")
	inner := filepath.Join(path, "keep")
	if err := os.MkdirAll(inner, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("new"), 0o644); err == nil {
		t.Fatal("a write over a non-empty directory succeeded")
	}
	if info, err := os.Stat(inner); err != nil || !info.IsDir() {
		t.Errorf("target changed by the failed write: %v", err)
	}
	noTemps(t, dir, "f.json")
}

func TestWriteFileMissingParentFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "f.json")
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("a write into a missing directory succeeded")
	}
}

func TestMkdir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job")
	for i := 0; i < 2; i++ { // creates, then accepts the existing directory
		if err := Mkdir(path, 0o755); err != nil {
			t.Fatalf("Mkdir #%d: %v", i+1, err)
		}
		if info, err := os.Stat(path); err != nil || !info.IsDir() {
			t.Fatalf("Mkdir #%d left no directory: %v", i+1, err)
		}
	}
	file := filepath.Join(dir, "file")
	if err := WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Mkdir(file, 0o755); err == nil {
		t.Error("Mkdir over a regular file succeeded")
	}
	if err := Mkdir(filepath.Join(dir, "missing", "job"), 0o755); err == nil {
		t.Error("Mkdir under a missing parent succeeded")
	}
}
