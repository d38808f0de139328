// Package analysistest runs an analyzer over packages under the calling
// test's testdata/src tree and checks its diagnostics against // want
// comments, following the conventions of
// golang.org/x/tools/go/analysis/analysistest:
//
//	bad := draw() // want `math/rand`
//
// expects a diagnostic on that line whose message matches the (back- or
// double-quoted) regular expression. Suppression directives are applied
// before matching, so a line carrying //arblint:ignore and no want comment
// asserts that the suppression works.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/dataflow"
	"arboretum/tools/arblint/internal/directive"
	"arboretum/tools/arblint/internal/load"
)

// wantRe matches the expectation list at the end of a // want comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Run loads ./testdata/src/<rel> for each rel, applies the analyzer and the
// suppression filter, and diffs the diagnostics against // want comments in
// the loaded files.
func Run(t *testing.T, a *analysis.Analyzer, rels ...string) {
	t.Helper()
	if len(rels) == 0 {
		t.Fatal("analysistest.Run: no testdata packages given")
	}
	patterns := make([]string, len(rels))
	for i, rel := range rels {
		patterns[i] = "./" + filepath.ToSlash(filepath.Join("testdata", "src", rel))
	}
	pkgs, err := load.Load(".", patterns)
	if err != nil {
		t.Fatalf("loading %v: %v", patterns, err)
	}

	var diags []analysis.Diagnostic
	var files []*ast.File
	fset := pkgs[0].Fset
	// The testdata tree stands in for a whole module rooted at testdata/src.
	prog := dataflow.NewProgram(fset)
	prog.Dir = filepath.Join("testdata", "src")
	prog.Whole = true
	for _, pkg := range pkgs {
		prog.AddPackage(pkg)
	}
	for _, pkg := range pkgs {
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
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: analyzer failed: %v", pkg.ImportPath, err)
		}
		diags = append(diags, directive.Filter(pkg.Fset, allFiles(pkg), pass.Diagnostics())...)
		files = append(files, allFiles(pkg)...)
	}

	expects := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.met {
			t.Errorf("%s:%d: expected diagnostic matching %s, got none", e.file, e.line, e.raw)
		}
	}
}

func allFiles(pkg *load.Package) []*ast.File {
	return append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
}

// collectWants parses every "// want" comment into expectations.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				specs := wantRe.FindAllString(text[idx+len("// want "):], -1)
				if len(specs) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, text)
				}
				for _, spec := range specs {
					pattern := spec
					if strings.HasPrefix(spec, "\"") {
						var err error
						if pattern, err = strconv.Unquote(spec); err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, spec, err)
						}
					} else {
						pattern = strings.Trim(spec, "`")
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, spec, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: spec})
				}
			}
		}
	}
	return out
}

// claim marks the first unmet expectation matching the diagnostic.
func claim(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.met && e.file == file && e.line == line && e.re.MatchString(msg) {
			e.met = true
			return true
		}
	}
	return false
}

// Fprint formats one diagnostic as the driver would, for tests that assert
// on rendered output.
func Fprint(fset *token.FileSet, d analysis.Diagnostic) string {
	pos := fset.Position(d.Pos)
	return fmt.Sprintf("%s:%d:%d: %s (%s)", pos.Filename, pos.Line, pos.Column, d.Message, d.Analyzer)
}
