package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arboretum/tools/arblint/internal/arblint"
	"arboretum/tools/arblint/internal/checkers"
)

// TestRepoCleanAtHead is the tier-1 regression: every analyzer over every
// package in the repository, zero findings. A change that introduces a
// violation (or removes an annotation without fixing the code) fails here
// before it fails in scripts/check.sh.
func TestRepoCleanAtHead(t *testing.T) {
	findings, err := arblint.Run("../..", []string{"./..."}, checkers.All())
	if err != nil {
		t.Fatalf("arblint over repo: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
	}
}

// TestSeededViolationFails proves the gate bites: a module that introduces a
// math/rand import into internal/shamir must produce randsource findings.
func TestSeededViolationFails(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module seedcheck\n\ngo 1.22\n")
	write("internal/shamir/bad.go", `// Package shamir seeds a randsource violation.
package shamir

import "math/rand"

// Draw uses a predictable generator for share material.
func Draw() int64 { return rand.Int63() }
`)
	// A caller keeps Draw live, so the only findings are randsource's.
	write("cmd/seed/main.go", `package main

import "seedcheck/internal/shamir"

func main() { println(shamir.Draw()) }
`)
	findings, err := arblint.Run(dir, []string{"./..."}, checkers.All())
	if err != nil {
		t.Fatalf("arblint over seeded module: %v", err)
	}
	if len(findings) < 2 { // the import plus the use site
		t.Fatalf("got %d findings, want at least 2 (import and use)", len(findings))
	}
	for _, f := range findings {
		if f.Analyzer != "randsource" {
			t.Errorf("unexpected analyzer %q: %s", f.Analyzer, f.Message)
		}
		if !strings.Contains(f.Message, "math/rand") {
			t.Errorf("finding does not name math/rand: %s", f.Message)
		}
	}
}
