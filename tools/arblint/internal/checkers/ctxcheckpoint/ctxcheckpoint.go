// Package ctxcheckpoint locks in PR 8's deadline work: the runtime's
// unbounded hot loops — the ingest shard driver and the interpreter's
// vignette and statement loops, listed in policy.CheckpointFuncs — must
// contain a cancellation checkpoint, so a canceled or deadline-exceeded job
// stops at the next batch/vignette/statement boundary instead of running to
// completion while the gateway has already abandoned it. A checkpoint is a
// select on ctx.Done(), a ctx.Err() poll, or a call to a function that
// performs one (the runtime's checkpoint helper counts through the
// interprocedural registry, however many hops deep). The analyzer also
// requires every condition-less `for {}` loop in a listed package to carry
// a checkpoint — a loop with no exit condition and no cancellation poll can
// outlive every deadline the service hands out.
package ctxcheckpoint

import (
	"go/ast"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/dataflow"
	"arboretum/tools/arblint/internal/policy"
)

// Analyzer is the ctxcheckpoint checker.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcheckpoint",
	Doc:  "unbounded runtime loops must contain a cancellation checkpoint",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.TypesInfo == nil {
		return nil
	}
	var required []string
	for key, fns := range policy.CheckpointFuncs {
		probe := policy.Set{key: true}
		if probe.Matches(pass.PkgPath) {
			required = fns
			break
		}
	}
	if required == nil {
		return nil
	}

	decls := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[declKey(fd)] = fd
			}
		}
	}

	for _, req := range required {
		fd, ok := decls[req]
		if !ok {
			pass.Reportf(pass.Files[0].Name.Pos(),
				"policy.CheckpointFuncs requires %s in this package but it does not exist: update the function or the policy table together",
				req)
			continue
		}
		loops := collectLoops(fd.Body)
		if len(loops) == 0 {
			pass.Reportf(fd.Name.Pos(),
				"%s is listed in policy.CheckpointFuncs but contains no loop: update the policy table with the new hot-loop location", req)
			continue
		}
		checkpointed := false
		for _, loop := range loops {
			if loopHasCheckpoint(pass, loopBody(loop)) {
				checkpointed = true
				break
			}
		}
		if !checkpointed {
			pass.Reportf(loops[0].Pos(),
				"%s has no loop with a cancellation checkpoint: a canceled job would run this path to completion past its deadline (add a ctx.Done select, a ctx.Err poll, or a checkpoint call)", req)
		}
	}

	// Package-wide rule: a `for {}` with no condition must checkpoint.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			if !loopHasCheckpoint(pass, loop.Body) {
				pass.Reportf(loop.Pos(),
					"condition-less loop without a cancellation checkpoint: nothing bounds it when the job's context is canceled")
			}
			return true
		})
	}
	return nil
}

// declKey renders a FuncDecl as the policy table's "Type.method" (or plain
// "func") notation.
func declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// collectLoops gathers every for/range statement in body, including nested
// ones but not those inside function literals.
func collectLoops(body *ast.BlockStmt) []ast.Stmt {
	var out []ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			out = append(out, n.(ast.Stmt))
		}
		return true
	})
	return out
}

func loopBody(s ast.Stmt) *ast.BlockStmt {
	switch s := s.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return nil
}

// loopHasCheckpoint reports whether body contains a cancellation
// checkpoint: a receive from a Done() channel (in a select or bare), an
// Err() poll, or a call into a function that transitively performs one.
func loopHasCheckpoint(pass *analysis.Pass, body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCtxCall(call) {
			found = true
			return false
		}
		if pass.Prog != nil {
			if callee := dataflow.CalleeOf(pass.TypesInfo, call); callee != nil {
				if pass.Prog.FuncMatches(callee, "ctxcheckpoint", funcChecksCtx) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isCtxCall matches the syntactic checkpoint forms: x.Done() (whose result
// is received from) and x.Err(). Matching is by method name — the false
// positives this could admit only credit a checkpoint, never invent a
// finding, and the runtime spells these exclusively on contexts.
func isCtxCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return sel.Sel.Name == "Done" || sel.Sel.Name == "Err"
}

// funcChecksCtx is the registry predicate: does this function's own body
// contain a syntactic checkpoint?
func funcChecksCtx(f *dataflow.Func) bool {
	found := false
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isCtxCall(call) {
			found = true
			return false
		}
		return true
	})
	return found
}
