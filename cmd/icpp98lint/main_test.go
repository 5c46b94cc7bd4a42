package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test binary's working directory")
		}
		dir = parent
	}
}

// buildLint builds the icpp98lint binary into a temporary directory and
// returns its path.
func buildLint(t *testing.T, root string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "icpp98lint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/icpp98lint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building icpp98lint: %v\n%s", err, out)
	}
	return bin
}

// TestSuiteCleanOverRepo drives the real thing over the whole repo: build
// the binary and hand it to `go vet -vettool` for ./..., test files
// included, requiring a clean exit. Every invariant violation is either
// fixed or carries a documented //icpp98:allow suppression. This
// exercises -V=full, -flags, the vet.cfg unitchecker path, and .vetx fact
// plumbing exactly as CI runs them.
func TestSuiteCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the lint binary and vets the whole repo; skipped in -short")
	}
	root := repoRoot(t)
	vet := exec.Command("go", "vet", "-vettool="+buildLint(t, root), "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool ./...: %v\n%s", err, out)
	}
}

// TestVettoolProtocol checks the handshake cmd/go relies on, one probe at
// a time: -V=full prints a tool ID that is stable across calls (go vet's
// cache key), -flags prints an empty analyzer-flag list, and any other
// invocation is a usage error. It then hands the binary to `go vet
// -vettool` for packages with known hot-path annotations, whose facts
// cross the internal/heapx -> internal/core import edge through .vetx
// files, and requires a clean exit.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the lint binary and runs go vet; skipped in -short")
	}
	root := repoRoot(t)
	bin := buildLint(t, root)

	probe := func(args ...string) (string, error) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		return string(out), err
	}
	id1, err := probe("-V=full")
	if err != nil || !strings.HasPrefix(id1, "icpp98lint version ") {
		t.Fatalf("-V=full: %v\n%s", err, id1)
	}
	if strings.Contains(id1, "devel") {
		t.Fatalf("-V=full must not report a devel version (cmd/go then expects a buildID): %q", id1)
	}
	if id2, err := probe("-V=full"); err != nil || id2 != id1 {
		t.Fatalf("-V=full is not stable: %q then %q (%v)", id1, id2, err)
	}
	if flags, err := probe("-flags"); err != nil || strings.TrimSpace(flags) != "[]" {
		t.Fatalf("-flags: %v\n%s", err, flags)
	}
	for _, args := range [][]string{nil, {"./..."}} {
		out, err := probe(args...)
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 1 || !strings.Contains(out, "usage:") {
			t.Fatalf("icpp98lint %v: want usage and exit 1, got %v\n%s", args, err, out)
		}
	}

	vet := exec.Command("go", "vet", "-vettool="+bin, "./internal/core/...", "./internal/heapx/...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool: %v\n%s", err, out)
	}
}

// TestVettoolRejectsViolation proves the wired-up binary actually fails
// the build on a seeded violation, with a diagnostic naming the invariant.
func TestVettoolRejectsViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the lint binary and runs go vet; skipped in -short")
	}
	bin := buildLint(t, repoRoot(t))

	mod := t.TempDir()
	writeFile(t, filepath.Join(mod, "go.mod"), "module seeded\n\ngo 1.22\n")
	writeFile(t, filepath.Join(mod, "seed.go"), `package seeded

//icpp98:hotpath
func leaky(n int) []int {
	return make([]int, n)
}
`)
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet accepted a seeded hot-path allocation:\n%s", out)
	}
	if !strings.Contains(string(out), "hot-path invariant") {
		t.Fatalf("diagnostic does not name the invariant:\n%s", out)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
