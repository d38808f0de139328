// Package secretflow bans flows from cryptographic secrets — Paillier
// private keys, BGV secret keys, Shamir shares, VSR dealings
// (policy.SecretTypes), and the plain *big.Int key values the Paillier
// key's accessors return (policy.SecretSources) — into anything that renders or persists them: fmt
// error/format strings, the log package, and JSON encoders. A secret in an
// error message survives into HTTP responses, journals, and CI logs long
// after the code that leaked it is gone, so the ban applies in every
// package, not just the boundary ones. Taint is value-level: projecting a
// field out of a secret struct (a share's public evaluation point, a
// dealing's sender index) is not a leak unless the field's own type is
// secret; what the analyzer hunts is the whole value reaching a format verb
// or encoder, directly or through helpers (the summaries make the helper
// hop visible).
package secretflow

import (
	"go/ast"
	"go/types"
	"strings"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/dataflow"
	"arboretum/tools/arblint/internal/policy"
)

// Analyzer is the secretflow checker.
var Analyzer = &analysis.Analyzer{
	Name: "secretflow",
	Doc:  "key material, shares, and dealings must never flow into errors, logs, or encoders",
	Run:  run,
}

var spec = &dataflow.Spec{
	Key: "secretflow",
	SourceCall: func(callee *types.Func, call *ast.CallExpr) (string, bool) {
		if callee.Pkg() == nil {
			return "", false
		}
		path := callee.Pkg().Path()
		if policy.FuncIn(policy.SecretSources, path, callee.Name()) {
			return path[strings.LastIndex(path, "/")+1:] + "." + callee.Name(), true
		}
		return "", false
	},
	SourceType: func(t types.Type) (string, bool) {
		named, ok := t.(*types.Named)
		if !ok {
			return "", false
		}
		obj := named.Obj()
		if obj == nil || obj.Pkg() == nil {
			return "", false
		}
		path := obj.Pkg().Path()
		for key, names := range policy.SecretTypes {
			if (path == key || strings.HasSuffix(path, "/"+key)) && names[obj.Name()] {
				return path[strings.LastIndex(path, "/")+1:] + "." + obj.Name(), true
			}
		}
		return "", false
	},
	Sink: func(callee *types.Func, call *ast.CallExpr) (string, bool) {
		if callee.Pkg() == nil {
			return "", false
		}
		name := callee.Name()
		switch callee.Pkg().Path() {
		case "fmt":
			switch name {
			case "Errorf", "Sprint", "Sprintf", "Sprintln",
				"Print", "Printf", "Println",
				"Fprint", "Fprintf", "Fprintln":
				return "fmt." + name, true
			}
		case "log":
			return "log." + name, true
		case "encoding/json":
			switch name {
			case "Marshal", "MarshalIndent", "Encode":
				return "json." + name, true
			}
		}
		return "", false
	},
}

func run(pass *analysis.Pass) error {
	if pass.Prog == nil || pass.TypesInfo == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := pass.Prog.TaintSummary(spec, obj)
			for _, v := range sum.Violations {
				pass.Reportf(v.Pos,
					"secret %s flows into %s: key material must never reach error strings, logs, or encoders",
					v.Source, v.Sink)
			}
		}
	}
	return nil
}
