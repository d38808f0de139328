package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The cheap experiments run through the same entry point the CLI uses.
func TestRunSelectedExperiments(t *testing.T) {
	for _, exp := range []string{"table2", "fig9"} {
		if err := run(exp, ""); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
	if err := run("bogus", ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCSVOutput(t *testing.T) {
	dir := t.TempDir()
	if err := run("fig9", dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "query,time_ns,prefixes,candidates,pruned\n") {
		t.Errorf("figure9.csv starts %q, want its header", strings.SplitN(string(data), "\n", 2)[0])
	}
}
