// Package walorder enforces the WAL discipline from the client side: disk
// is never behind memory. internal/wal's contract is that Append fsyncs the
// record and only then applies it to in-memory state, via the apply
// callback handed to wal.Open; a crash can therefore lose an un-acked
// append but never an observed state transition (docs/FAULTS.md). That
// contract evaporates if a WAL client mutates its durable state *before*
// the append returns — the mutation is observable (and, after a crash,
// divergent from the log) with no record behind it.
//
// The analyzer recovers the durable-state roots mechanically: it finds the
// wal.Open call in each client package (policy.WALClients), takes the apply
// callback passed as its third argument, and collects every field of the
// callback's receiver type that the callback (or same-type methods it
// calls) assigns — those fields ARE the durable state, by construction.
// It then checks every other function in the package: a write to a root
// field (directly, or by calling any function that transitively writes one)
// that may precede — on some control-flow path, per the function's CFG — a
// call that transitively reaches wal Append/Rewrite is a finding. Both
// sides of the race look through helpers: a method that resets a root is a
// root write, `l.CreateTenant(...)` is an append, wherever the bodies live.
package walorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/dataflow"
	"arboretum/tools/arblint/internal/policy"
)

// Analyzer is the walorder checker.
var Analyzer = &analysis.Analyzer{
	Name: "walorder",
	Doc:  "no durable-state mutation observable before its WAL append is fsync-confirmed",
	Run:  run,
}

// rootKey identifies one durable field: the apply receiver's type plus the
// field name.
type rootKey struct {
	owner *types.TypeName
	field string
}

func run(pass *analysis.Pass) error {
	if pass.Prog == nil || pass.TypesInfo == nil {
		return nil
	}
	if !policy.WALClients.Matches(pass.PkgPath) {
		return nil
	}

	// 1. Find the apply callbacks: third argument of wal.Open calls.
	applyFns := map[*types.Func]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := dataflow.CalleeOf(pass.TypesInfo, call)
			if callee == nil || !inWalPkg(callee) || callee.Name() != "Open" || len(call.Args) < 3 {
				return true
			}
			if sel, ok := ast.Unparen(call.Args[2]).(*ast.SelectorExpr); ok {
				if m, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
					applyFns[m] = true
				}
			}
			return true
		})
	}
	if len(applyFns) == 0 {
		return nil
	}

	// 2. Collect the durable roots each apply callback maintains.
	roots := map[rootKey]bool{}
	for fn := range applyFns {
		owner := receiverTypeName(fn)
		if owner == nil {
			continue
		}
		collectRoots(pass.Prog, fn, owner, roots, map[*types.Func]bool{})
	}
	if len(roots) == 0 {
		return nil
	}

	// Registry predicates, namespaced per package (the root set differs
	// between WAL clients).
	writesKey := "walorder-writes:" + pass.PkgPath
	writesRoot := func(f *dataflow.Func) bool {
		hit := false
		eachRootWrite(f.Info, f.Decl.Body, roots, func(pos token.Pos, rk rootKey) {
			hit = true
		})
		return hit
	}
	appendsKey := "walorder-appends"
	reachesAppend := func(f *dataflow.Func) bool {
		hit := false
		ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
			if hit {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if c := dataflow.CalleeOf(f.Info, call); c != nil && isWalAppend(c) {
					hit = true
				}
			}
			return true
		})
		return hit
	}

	// 3. Check every function body (and each function literal separately —
	// closures get their own CFG) except the apply callbacks themselves.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok && applyFns[obj] {
				continue
			}
			checkBody(pass, fd.Body, roots, writesKey, writesRoot, appendsKey, reachesAppend)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, lit.Body, roots, writesKey, writesRoot, appendsKey, reachesAppend)
				}
				return true
			})
		}
	}
	return nil
}

// event is one ordered occurrence inside a function body.
type event struct {
	pos  token.Pos
	desc string
}

// checkBody reports every root write in body that may precede an append.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, roots map[rootKey]bool,
	writesKey string, writesRoot func(*dataflow.Func) bool,
	appendsKey string, reachesAppend func(*dataflow.Func) bool) {

	var writes, appends []event

	eachRootWrite(pass.TypesInfo, body, roots, func(pos token.Pos, rk rootKey) {
		writes = append(writes, event{pos, rk.owner.Name() + "." + rk.field})
	})

	inspectSkippingFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		callee := dataflow.CalleeOf(pass.TypesInfo, call)
		if callee == nil {
			return
		}
		if isWalAppend(callee) || pass.Prog.FuncMatches(callee, appendsKey, reachesAppend) {
			appends = append(appends, event{call.Pos(), callee.Name()})
		} else if pass.Prog.FuncMatches(callee, writesKey, writesRoot) {
			writes = append(writes, event{call.Pos(), "via " + callee.Name()})
		}
	})

	if len(writes) == 0 || len(appends) == 0 {
		return
	}
	cfg := dataflow.BuildCFG(body)
	for _, w := range writes {
		for _, a := range appends {
			if cfg.MayPrecede(w.pos, a.pos) {
				pass.Reportf(w.pos,
					"durable state (%s) is mutated before the WAL append at line %d is fsync-confirmed: after a crash here, memory would be ahead of disk — mutate only in the apply callback, after Append returns",
					w.desc, pass.Fset.Position(a.pos).Line)
				break
			}
		}
	}
}

// eachRootWrite invokes fn for every direct mutation of a root field in
// body: assignment, inc/dec, and delete() on a root map. Function literal
// interiors are skipped (analyzed as their own bodies).
func eachRootWrite(info *types.Info, body *ast.BlockStmt, roots map[rootKey]bool, fn func(token.Pos, rootKey)) {
	inspectSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rk, ok := rootFieldOf(info, lhs, roots); ok {
					fn(lhs.Pos(), rk)
				}
			}
		case *ast.IncDecStmt:
			if rk, ok := rootFieldOf(info, n.X, roots); ok {
				fn(n.X.Pos(), rk)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					if rk, ok := rootFieldOf(info, n.Args[0], roots); ok {
						fn(n.Args[0].Pos(), rk)
					}
				}
			}
		}
	})
}

// rootFieldOf unwraps an lvalue (x.f, x.f[k], *x.f) down to a selector and
// reports whether it denotes a root field.
func rootFieldOf(info *types.Info, e ast.Expr, roots map[rootKey]bool) (rootKey, bool) {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.SelectorExpr:
			owner := namedTypeOf(info.TypeOf(v.X))
			if owner == nil {
				return rootKey{}, false
			}
			rk := rootKey{owner, v.Sel.Name}
			return rk, roots[rk]
		default:
			return rootKey{}, false
		}
	}
}

// collectRoots gathers the fields of owner that fn assigns, recursing into
// same-owner methods fn calls (an apply callback may delegate per-record-op
// helpers).
func collectRoots(prog *dataflow.Program, fn *types.Func, owner *types.TypeName, roots map[rootKey]bool, seen map[*types.Func]bool) {
	if seen[fn] {
		return
	}
	seen[fn] = true
	f := prog.FuncOf(fn)
	if f == nil {
		return
	}
	all := map[rootKey]bool{} // accept writes on any value of the owner type, not just the receiver
	eachRootWriteAny(f.Info, f.Decl.Body, owner, func(pos token.Pos, rk rootKey) {
		all[rk] = true
	})
	for rk := range all {
		roots[rk] = true
	}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if c := dataflow.CalleeOf(f.Info, call); c != nil && receiverTypeName(c) == owner {
				collectRoots(prog, c, owner, roots, seen)
			}
		}
		return true
	})
}

// eachRootWriteAny is eachRootWrite with "every field of owner" as the root
// set: used to discover the roots in the first place.
func eachRootWriteAny(info *types.Info, body *ast.BlockStmt, owner *types.TypeName, fn func(token.Pos, rootKey)) {
	probe := func(pos token.Pos, e ast.Expr) {
		for {
			switch v := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.SelectorExpr:
				if namedTypeOf(info.TypeOf(v.X)) == owner {
					fn(pos, rootKey{owner, v.Sel.Name})
				}
				return
			default:
				return
			}
		}
	}
	inspectSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				probe(lhs.Pos(), lhs)
			}
		case *ast.IncDecStmt:
			probe(n.X.Pos(), n.X)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" && len(n.Args) > 0 {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					probe(n.Args[0].Pos(), n.Args[0])
				}
			}
		}
	})
}

func inspectSkippingFuncLits(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

func receiverTypeName(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedTypeOf(sig.Recv().Type())
}

func namedTypeOf(t types.Type) *types.TypeName {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v.Obj()
		default:
			return nil
		}
	}
}

func inWalPkg(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "internal/wal" || strings.HasSuffix(path, "/internal/wal") ||
		strings.HasSuffix(path, "/wal")
}

func isWalAppend(fn *types.Func) bool {
	return inWalPkg(fn) && (fn.Name() == "Append" || fn.Name() == "Rewrite")
}
