// Package analysis defines the analyzer interface arblint's checkers are
// written against. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic, Reportf) so the
// checkers can migrate to the upstream multichecker mechanically if that
// dependency is ever vendored; until then the suite runs entirely on the
// standard library (go/ast, go/types) plus `go list -export` for type
// information.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"arboretum/tools/arblint/internal/dataflow"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //arblint:ignore directives. It must be a single lower-case word.
	Name string

	// Doc is the one-paragraph description shown by `arblint -list`.
	Doc string

	// TestFiles requests that the pass include the package's _test.go
	// files. Test files are parsed but NOT type-checked (the driver does
	// not build test dependency export data), so analyzers that set this
	// must degrade to syntactic analysis when TypesInfo lookups miss.
	TestFiles bool

	// WholeProgram marks an analyzer that reports only when the load is the
	// whole module (Prog.Whole). On a partial load arblint cannot judge
	// its directives stale.
	WholeProgram bool

	// Run applies the analyzer to one package, reporting findings through
	// pass.Report/Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer

	Fset *token.FileSet

	// Files holds the package's compiled (non-test) files, fully
	// type-checked.
	Files []*ast.File

	// TestFiles holds the package's _test.go files (in-package and
	// external), parsed only. Nil unless Analyzer.TestFiles is set.
	TestFiles []*ast.File

	// PkgPath is the package's import path (e.g. "arboretum/internal/ahe").
	PkgPath string

	// Pkg and TypesInfo describe the type-checked Files. They may be nil
	// when type checking failed; analyzers must tolerate nil lookups.
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole-load function registry shared by every pass of one
	// driver run: the interprocedural analyzers resolve callees in other
	// packages through it. May be nil in minimal test harnesses; analyzers
	// that need it must tolerate that by degrading to intraprocedural
	// reasoning.
	Prog *dataflow.Program

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diags = append(p.diags, d)
}

// Reportf records a finding at pos with a Sprintf-formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// AllFiles returns the files the analyzer should walk: the type-checked
// files plus, for TestFiles analyzers, the parsed test files.
func (p *Pass) AllFiles() []*ast.File {
	if len(p.TestFiles) == 0 {
		return p.Files
	}
	out := make([]*ast.File, 0, len(p.Files)+len(p.TestFiles))
	out = append(out, p.Files...)
	out = append(out, p.TestFiles...)
	return out
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool { return p.diags[i].Pos < p.diags[j].Pos })
	return p.diags
}

// ObjectOf is a nil-tolerant TypesInfo.ObjectOf: it returns nil for idents
// in files that were not type-checked (test files).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.ObjectOf(id)
}

// TypeOf is a nil-tolerant TypesInfo.TypeOf.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	return p.TypesInfo.TypeOf(e)
}
