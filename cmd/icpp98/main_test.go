package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/stg"
)

// captureStdout runs fn with os.Stdout redirected into a buffer.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

// TestScheduleCLILargeSTG is the new-size-regime acceptance at the CLI: a
// v = 128 layered STG instance (beyond the old 64-task mask) scheduled with
// `icpp98 schedule -engine astar -hplus -procs complete:8` reaches proven
// optimality.
func TestScheduleCLILargeSTG(t *testing.T) {
	g, err := gen.Layered(gen.LayeredConfig{Layers: 32, Width: 4, Seed: 42}) // v = 128
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := stg.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "large.stg")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		cmdSchedule([]string{"-engine", "astar", "-hplus", "-procs", "complete:8", "-gantt=false", path})
	})
	if !strings.Contains(out, "optimal=true") {
		t.Fatalf("CLI did not prove optimality on the v=128 instance:\n%s", out)
	}
	if !strings.Contains(out, "algorithm=astar") {
		t.Fatalf("unexpected CLI header:\n%s", out)
	}
}

// TestScheduleCLIRejectsCostOverflow runs the built CLI on a 3-task chain
// of weight 1e9, whose schedule length does not fit the engines' int32
// arithmetic: every engine and heuristic path must exit non-zero with the
// cost-range error before solving, not report a wrapped schedule as a bug.
func TestScheduleCLIRejectsCostOverflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI binary; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "icpp98")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building icpp98: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "chain.tg")
	chain := "graph chain\nnode 0 1000000000\nnode 1 1000000000\nnode 2 1000000000\nedge 0 1 0\nedge 1 2 0\n"
	if err := os.WriteFile(path, []byte(chain), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"astar", "dfbb", "list"} {
		out, err := exec.Command(bin, "schedule", "-algo", algo, "-procs", "complete:1", "-gantt=false", path).CombinedOutput()
		if err == nil {
			t.Errorf("%s: accepted the instance:\n%s", algo, out)
			continue
		}
		if !strings.Contains(string(out), "int32 range") || strings.Contains(string(out), "bug") {
			t.Errorf("%s: want the cost-range error, got:\n%s", algo, out)
		}
	}
}
