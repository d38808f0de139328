// Package bigintalias flags mutable shared-memory values that cross an
// exported API boundary without a defensive copy. math/big values are
// mutable, so an exported method that returns an internal *big.Int field (or
// stores a caller's *big.Int into one) lets the caller and the data
// structure silently mutate each other — an aliasing bug that otherwise
// shows only at run time, promoted here to a static check. The same rule
// covers the pooled buffer types listed in policy.AliasProne (bgv.Poly): a
// pooled slab that escapes across an exported boundary is recycled into the
// next operation's scratch and corrupts the caller's value after the fact.
//
// Three shapes are flagged inside exported functions and methods of
// exported types, for *big.Int and for every alias-prone named type:
//
//	return t.f          // f is a *big.Int / alias-prone field of the
//	                    // receiver or a param
//	return t.fs[i]      // fs is a slice of such values
//	t.f = p             // p is such a parameter stored uncopied
//	T{f: p} / &T{f: p}  // composite literal capturing such a parameter
//
// The fix is new(big.Int).Set(...) (or an explicit slice copy); intentional
// ownership transfer must say so with //arblint:ignore bigintalias <reason>.
package bigintalias

import (
	"go/ast"
	"go/types"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/policy"
)

// Analyzer is the bigintalias checker.
var Analyzer = &analysis.Analyzer{
	Name: "bigintalias",
	Doc:  "require defensive copies when *big.Int or pooled alias-prone values cross exported API boundaries",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.TypesInfo == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !exportedBoundary(pass, fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// exportedBoundary reports whether fd is reachable by other packages: an
// exported function, or an exported method on an exported named type.
func exportedBoundary(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return true
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return true
	}
	return named.Obj().Exported()
}

// isBigIntPtr reports whether t is *math/big.Int.
func isBigIntPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "math/big" && obj.Name() == "Int"
}

// aliasProneName returns the qualified name of t when it is a named type the
// policy.AliasProne table marks as aliasing pooled or recycled memory, and
// "" otherwise.
func aliasProneName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	if policy.FuncIn(policy.AliasProne, obj.Pkg().Path(), obj.Name()) {
		return obj.Pkg().Name() + "." + obj.Name()
	}
	return ""
}

// sharedKind classifies a type under the boundary-crossing rule: "*big.Int",
// the alias-prone type's qualified name, or "" when the rule does not apply.
func sharedKind(t types.Type) string {
	if isBigIntPtr(t) {
		return "*big.Int"
	}
	return aliasProneName(t)
}

// boundaryObjs collects the function's receiver and parameter objects: the
// values the caller shares with the callee.
func boundaryObjs(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	objs := map[types.Object]bool{}
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, field := range fields.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					objs[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return objs
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	boundary := boundaryObjs(pass, fd)

	// fieldAlias returns a description and the shared kind when expr
	// evaluates to an internal *big.Int or alias-prone value reachable
	// through a boundary object's field.
	fieldAlias := func(expr ast.Expr) (string, string, bool) {
		if idx, ok := expr.(*ast.IndexExpr); ok {
			expr = idx.X
		}
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return "", "", false
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return "", "", false
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || !boundary[pass.ObjectOf(base)] {
			return "", "", false
		}
		ft := selection.Obj().Type()
		if kind := sharedKind(ft); kind != "" {
			return base.Name + "." + sel.Sel.Name, kind, true
		}
		if slice, ok := ft.(*types.Slice); ok {
			if kind := sharedKind(slice.Elem()); kind != "" {
				return base.Name + "." + sel.Sel.Name + "[...]", kind, true
			}
		}
		return "", "", false
	}

	// paramShared reports whether expr is a bare parameter (or receiver)
	// ident of a shared kind, and which kind.
	paramShared := func(expr ast.Expr) (string, string, bool) {
		id, ok := expr.(*ast.Ident)
		if !ok {
			return "", "", false
		}
		obj := pass.ObjectOf(id)
		if obj == nil || !boundary[obj] {
			return "", "", false
		}
		kind := sharedKind(obj.Type())
		if kind == "" {
			return "", "", false
		}
		return id.Name, kind, true
	}

	// fix names the idiomatic defensive copy for a kind in diagnostics. The
	// *big.Int wording is load-bearing: the vsr testdata pins it.
	fix := func(kind, what string) string {
		if kind == "*big.Int" {
			return "new(big.Int).Set(" + what + ")"
		}
		return "an explicit copy of " + what
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures may legitimately capture internal state; their
			// escape is out of scope for this heuristic.
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if sharedKind(pass.TypeOf(res)) == "" {
					continue
				}
				if desc, kind, ok := fieldAlias(res); ok {
					pass.Reportf(res.Pos(),
						"%s returns internal %s %s without copy: use %s so callers cannot mutate internal state",
						fd.Name.Name, kind, desc, fix(kind, "..."))
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				desc, _, ok := fieldAlias(lhs)
				if !ok {
					continue
				}
				if pname, kind, ok := paramShared(n.Rhs[i]); ok {
					pass.Reportf(n.Rhs[i].Pos(),
						"%s stores caller-owned %s parameter %s into %s without copy: use %s",
						fd.Name.Name, kind, pname, desc, fix(kind, pname))
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if pname, kind, ok := paramShared(kv.Value); ok {
					pass.Reportf(kv.Value.Pos(),
						"%s captures caller-owned %s parameter %s in a composite literal without copy: use %s",
						fd.Name.Name, kind, pname, fix(kind, pname))
				}
			}
		}
		return true
	})
}
