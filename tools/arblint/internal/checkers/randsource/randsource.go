// Package randsource enforces Arboretum's randomness-source policy:
//
//   - In secrecy-critical packages (policy.SecrecyCritical) — the crypto
//     primitives, sortition, the DP mechanisms, and the runtime — math/rand
//     must not be imported or referenced: its stream is predictable from a
//     63-bit seed, which would let an observer reconstruct keys, shares,
//     sortition tickets, or noise. Deliberately deterministic simulation
//     draws are annotated with //arblint:ignore randsource <reason>.
//
//   - In benchmark files of packages whose kernel timings are compared
//     across commits (policy.DeterministicBench), crypto/rand must not be
//     used: benchmark inputs must be identical run to run so the
//     before/after go test -bench rows of docs/KERNELS.md measure the code,
//     not the inputs. Those benchmarks draw from internal/benchrand instead.
//
// The analyzer inspects _test.go files too (syntactically), since both
// rules apply to test code.
package randsource

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/policy"
)

// Analyzer is the randsource checker.
var Analyzer = &analysis.Analyzer{
	Name:      "randsource",
	Doc:       "ban math/rand in secrecy-critical packages and crypto/rand in determinism-required benchmarks",
	TestFiles: true,
	Run:       run,
}

var mathRandPaths = map[string]bool{"math/rand": true, "math/rand/v2": true}

func run(pass *analysis.Pass) error {
	secrecyKey := policy.SecrecyCritical.Match(pass.PkgPath)
	// Simulation machinery (the fault-injection engine) is secrecy-adjacent
	// but deliberately deterministic: its math/rand draws are seeded replay
	// state, not secrets, so the ban is lifted package-wide.
	if policy.SimulationExempt.Matches(pass.PkgPath) {
		secrecyKey = ""
	}
	benchDet := policy.DeterministicBench.Matches(pass.PkgPath)
	for _, f := range pass.AllFiles() {
		checkFile(pass, f, secrecyKey, benchDet)
	}
	return nil
}

// isBenchFile reports whether the file is benchmark-only by naming
// convention (bench_test.go / *_bench_test.go).
func isBenchFile(name string) bool {
	base := name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return base == "bench_test.go" || strings.HasSuffix(base, "_bench_test.go")
}

func checkFile(pass *analysis.Pass, f *ast.File, secrecyKey string, benchDet bool) {
	filename := pass.Fset.Position(f.Pos()).Filename
	// localNames maps file-local package qualifiers to the banned import
	// they refer to, the fallback used for files without type information.
	localNames := map[string]string{}
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		switch {
		case mathRandPaths[path] && secrecyKey != "":
			pass.Reportf(spec.Pos(), "import of %s in secrecy-critical package (%s): use crypto/rand, or annotate deterministic simulation draws", path, secrecyKey)
			localNames[importName(spec, path)] = path
		case path == "crypto/rand" && benchDet && isBenchFile(filename):
			pass.Reportf(spec.Pos(), "import of crypto/rand in benchmark file of determinism-required package: use internal/benchrand so tracked kernel timings see identical inputs")
			localNames[importName(spec, path)] = path
		}
	}
	if len(localNames) == 0 {
		return
	}
	// Flag every qualified reference to the banned import, so each use
	// site is annotated (or fixed) individually.
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		path, ok := refersToBanned(pass, id, localNames)
		if !ok {
			return true
		}
		pass.Reportf(sel.Pos(), "use of %s.%s (%s banned here)", id.Name, sel.Sel.Name, path)
		return true
	})
}

// importName returns the qualifier an import is referred to by.
func importName(spec *ast.ImportSpec, path string) string {
	if spec.Name != nil {
		return spec.Name.Name
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return path
}

// refersToBanned reports whether ident is a package qualifier for one of the
// banned imports: via type information when available, by import-name match
// in parsed-only test files.
func refersToBanned(pass *analysis.Pass, id *ast.Ident, localNames map[string]string) (string, bool) {
	if obj := pass.ObjectOf(id); obj != nil {
		pn, ok := obj.(*types.PkgName)
		if !ok {
			return "", false
		}
		path := pn.Imported().Path()
		for _, banned := range localNames {
			if banned == path {
				return path, true
			}
		}
		return "", false
	}
	path, ok := localNames[id.Name]
	return path, ok
}
