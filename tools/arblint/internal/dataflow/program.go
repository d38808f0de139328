// Package dataflow is arblint's interprocedural analysis engine: a
// function-level IR over the go/types-checked ASTs the loader produces, with
// three facilities the flow-sensitive checkers build on:
//
//   - a registry of every function body across all loaded packages, so an
//     analyzer looking at package P can reason about what a callee in
//     package Q actually does (Program, Func);
//   - a control-flow graph per function with a may-precede query over basic
//     blocks, for ordering invariants like "no durable-state mutation before
//     the WAL append returns" (cfg.go);
//   - a taint engine with per-function summaries memoized across the whole
//     program, so "this value derives from a raw aggregate" propagates
//     bottom-up through helper functions instead of stopping at the first
//     call site (taint.go).
//
// Like the rest of arblint it is standard-library only. The engine is a
// deliberate over/under-approximation tuned for invariant checking, not a
// sound whole-program analysis; the limits (heap flows, closures as values,
// reflection) are documented in docs/ANALYSIS.md.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"arboretum/tools/arblint/internal/load"
)

// Program is the cross-package function registry plus the memo tables the
// taint and reachability analyses share. One Program is built per driver run
// and handed to every pass, so a summary computed while linting
// internal/service is reused when internal/ledger asks about the same
// callee.
type Program struct {
	Fset *token.FileSet

	// Dir is the directory the load ran in, and Whole reports that the load
	// was the whole module (./...). A whole-program analyzer (deadexport)
	// reads callers from every package, so it reports nothing on a partial
	// load, where a caller outside it would go unseen.
	Dir   string
	Whole bool

	// Pkgs lists every type-checked package of the load, in load order.
	Pkgs []*load.Package

	fns  map[*types.Func]*Func
	memo map[string]any

	summaries  map[sumKey]*Summary
	inProgress map[sumKey]bool

	matchMemo map[matchKey]bool
	matchSeen map[matchKey]bool
}

type sumKey struct {
	spec string
	fn   *types.Func
}

type matchKey struct {
	key string
	fn  *types.Func
}

// Func is one function body the registry knows: a declared function or
// method with source available in some loaded package. Function literals are
// analyzed as part of their enclosing function, not registered separately.
type Func struct {
	Obj     *types.Func
	Decl    *ast.FuncDecl
	PkgPath string
	Info    *types.Info

	cfg *CFG
}

// NewProgram returns an empty registry around fset (the single FileSet the
// loader threads through every package).
func NewProgram(fset *token.FileSet) *Program {
	return &Program{
		Fset:       fset,
		fns:        map[*types.Func]*Func{},
		memo:       map[string]any{},
		summaries:  map[sumKey]*Summary{},
		inProgress: map[sumKey]bool{},
		matchMemo:  map[matchKey]bool{},
		matchSeen:  map[matchKey]bool{},
	}
}

// AddPackage registers every declared function of one loaded package. Its
// Info may be nil (type checking failed); the package then contributes no
// bodies and callees into it fall back to conservative defaults.
func (p *Program) AddPackage(pkg *load.Package) {
	pkgPath, info := pkg.ImportPath, pkg.Info
	if info == nil {
		return
	}
	p.Pkgs = append(p.Pkgs, pkg)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.fns[obj] = &Func{Obj: obj, Decl: fd, PkgPath: pkgPath, Info: info}
		}
	}
}

// FuncOf returns the registered body for obj, or nil when its source was not
// loaded (standard library, export-data-only dependencies, interface
// methods).
func (p *Program) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	return p.fns[obj]
}

// Memo returns build's value for key, calling build once per Program: a
// whole-program index is built by the first pass that needs it.
func (p *Program) Memo(key string, build func() any) any {
	if _, ok := p.memo[key]; !ok {
		p.memo[key] = build()
	}
	return p.memo[key]
}

// CFG returns the function's control-flow graph, built on first use.
func (f *Func) CFG() *CFG {
	if f.cfg == nil {
		f.cfg = BuildCFG(f.Decl.Body)
	}
	return f.cfg
}

// CalleeOf resolves a call expression to the *types.Func it statically
// invokes, using the calling package's type info. Calls through function
// values, stored fields, and built-ins resolve to nil.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// FuncMatches reports whether fn's body satisfies match directly, or any
// statically resolvable callee with a known body does, transitively. key
// namespaces the memo: the same fn can be queried under different predicates
// (e.g. "reaches a WAL append" vs "contains a cancellation checkpoint").
// Unresolvable calls and bodies outside the registry contribute false, so
// the query under-approximates — callers use it to *credit* behavior
// (a checkpoint exists, an append happens), never to prove absence.
func (p *Program) FuncMatches(fn *types.Func, key string, match func(f *Func) bool) bool {
	if fn == nil {
		return false
	}
	mk := matchKey{key, fn}
	if v, ok := p.matchMemo[mk]; ok {
		return v
	}
	if p.matchSeen[mk] { // cycle: optimistic false, finalized by the root call
		return false
	}
	p.matchSeen[mk] = true
	defer delete(p.matchSeen, mk)

	f := p.fns[fn]
	result := false
	if f != nil {
		if match(f) {
			result = true
		} else {
			ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
				if result {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if callee := CalleeOf(f.Info, call); callee != nil && callee != fn {
					if p.FuncMatches(callee, key, match) {
						result = true
					}
				}
				return true
			})
		}
	}
	p.matchMemo[mk] = result
	return result
}
