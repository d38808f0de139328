// Package arblint drives a set of analyzers over package patterns: load,
// run, suppress, collect. Command arblint and the repo-wide regression test
// share this entry point, so "what the gate checks" is defined exactly once.
package arblint

import (
	"go/ast"
	"go/token"
	"time"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/dataflow"
	"arboretum/tools/arblint/internal/directive"
	"arboretum/tools/arblint/internal/load"
)

// Finding is one rendered diagnostic.
type Finding struct {
	Position token.Position `json:"position"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// Stat is one analyzer's aggregate wall time across every package of a run.
type Stat struct {
	Analyzer string        `json:"analyzer"`
	Packages int           `json:"packages"`
	Duration time.Duration `json:"duration_ns"`
}

// Run loads patterns relative to dir and applies every analyzer,
// returning the findings that survive //arblint:ignore suppression —
// including a finding for every directive that suppressed nothing.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	findings, _, err := RunStats(dir, patterns, analyzers)
	return findings, err
}

// RunStats is Run plus per-analyzer wall time.
func RunStats(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, []Stat, error) {
	pkgs, err := load.Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	// One shared function registry across every loaded package: this is
	// what lets a pass over internal/service reason about a helper defined
	// in internal/runtime. Registered before any analyzer runs, so summary
	// computation is independent of package order.
	var prog *dataflow.Program
	if len(pkgs) > 0 {
		prog = dataflow.NewProgram(pkgs[0].Fset)
		prog.Dir = dir
		prog.Whole = len(patterns) == 1 && patterns[0] == "./..."
		for _, pkg := range pkgs {
			prog.AddPackage(pkg)
		}
	}

	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = !a.WholeProgram || (prog != nil && prog.Whole)
	}

	stats := make([]Stat, len(analyzers))
	var findings []Finding
	for _, pkg := range pkgs {
		var diags []analysis.Diagnostic
		for i, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				PkgPath:   pkg.ImportPath,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Prog:      prog,
			}
			if a.TestFiles {
				pass.TestFiles = pkg.TestFiles
			}
			start := time.Now()
			if err := a.Run(pass); err != nil {
				return nil, nil, err
			}
			stats[i].Analyzer = a.Name
			stats[i].Packages++
			stats[i].Duration += time.Since(start)
			diags = append(diags, pass.Diagnostics()...)
		}
		files := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
		sup := directive.NewSuppressor(pkg.Fset, files)
		for _, d := range diags {
			if sup.Suppress(pkg.Fset, d) {
				continue
			}
			findings = append(findings, Finding{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		for _, d := range sup.Stale(ran) {
			findings = append(findings, Finding{
				Position: pkg.Fset.Position(d.Pos),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	return findings, stats, nil
}
