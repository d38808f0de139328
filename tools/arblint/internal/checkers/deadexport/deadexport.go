// Package deadexport flags a function or method declared in a non-test file
// under internal/ that no non-test file of the module references, and no
// file of the bench/ module either: code that only its own tests call. It
// covers unexported functions too.
//
// Uses resolve by type, not by name, over one index built from the whole
// load: a function is keyed by its package path, and a method by its package
// path, receiver type and name, so bench/ (its own module, loaded as a
// second root) and the export-data copies of the module's packages resolve
// to the same keys. A method also counts as used when its receiver type
// implements an interface containing it, if that interface is declared or
// named in the module's non-test code (io.Reader) or is error or
// fmt.Stringer: the call goes through the interface. A matching name alone
// is not enough.
//
// A recursive call does not count as a use. Nothing is reported on a partial
// load (anything but ./...), where a caller outside the load would go unseen.
//
// Moving such code into a _test.go file is not deleting it, so the _test.go
// files under internal/ are held to a second rule, read from syntax alone
// (test files are not type-checked): they declare no exported method on a
// type of the package's non-test files, and no exported top-level function
// but Test*, Benchmark*, Fuzz* and Example*. A test's own helper is
// unexported; a type the tests declare keeps any method it needs (an
// io.Reader's Read).
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/dataflow"
	"arboretum/tools/arblint/internal/load"
)

// Analyzer is the dead-code checker.
var Analyzer = &analysis.Analyzer{
	Name:         "deadexport",
	Doc:          "flag internal/ functions and methods that no non-test code of the module or of bench/ references, and exported non-test API declared in internal/ test files",
	TestFiles:    true,
	WholeProgram: true,
	Run:          run,
}

// index is the whole load's set of used function keys, or the error that
// stopped it being built.
type index struct {
	used map[string]bool
	err  error
}

func run(pass *analysis.Pass) error {
	if pass.Prog == nil || !pass.Prog.Whole || pass.TypesInfo == nil || !underInternal(pass.PkgPath) {
		return nil
	}
	idx := pass.Prog.Memo("deadexport", func() any { return build(pass.Prog) }).(*index)
	if idx.err != nil {
		return idx.err
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || idx.used[key(fn)] {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s is referenced by no non-test code of the module or of bench/: delete it, or make it an unexported test helper",
				strings.TrimPrefix(key(fn), fn.Pkg().Path()+"."))
		}
	}
	for _, f := range pass.TestFiles {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
				checkTestDecl(pass, f, fd)
			}
		}
	}
	return nil
}

// checkTestDecl reports an exported function of a _test.go file that is
// neither a test-framework entry point nor a method of a type the tests
// declare.
func checkTestDecl(pass *analysis.Pass, f *ast.File, fd *ast.FuncDecl) {
	name := fd.Name.Name
	if fd.Recv == nil {
		for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
			if strings.HasPrefix(name, prefix) {
				return
			}
		}
		pass.Reportf(fd.Name.Pos(), "%s is an exported function of a _test.go file: delete it, or make it an unexported test helper", name)
		return
	}
	// An external test package (pkg_test) cannot add methods to the
	// package's types.
	if pass.Pkg == nil || f.Name.Name != pass.Pkg.Name() {
		return
	}
	recv := receiverName(fd.Recv.List[0].Type)
	if _, ok := pass.Pkg.Scope().Lookup(recv).(*types.TypeName); ok {
		pass.Reportf(fd.Name.Pos(), "%s.%s is an exported method declared in a _test.go file on a non-test type: delete it, or make it an unexported test helper", recv, name)
	}
}

// receiverName is the type name of a receiver expression: T, *T, T[K] or
// *T[K].
func receiverName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// underInternal reports whether pkgPath lies in the module's internal/ tree
// (arboretum/internal/ahe, or a testdata stand-in .../testdata/src/internal/ahe).
func underInternal(pkgPath string) bool {
	if i := strings.LastIndex(pkgPath, "/testdata/src/"); i >= 0 {
		pkgPath = pkgPath[i+len("/testdata/src/"):]
	} else if _, rest, ok := strings.Cut(pkgPath, "/"); ok {
		pkgPath = rest
	}
	return strings.HasPrefix(pkgPath, "internal/")
}

// key names fn independently of which type-checked copy of its package
// holds it: "pkg/path.Func" or "pkg/path.Recv.Method".
func key(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Path() + "." + name
}

// build indexes every function the module's non-test files and bench/'s
// files reference, plus every method an interface of the module (or error,
// or fmt.Stringer) reaches.
func build(prog *dataflow.Program) any {
	idx := &index{used: map[string]bool{}}
	pkgs := prog.Pkgs
	benchDir := filepath.Join(prog.Dir, "bench")
	if _, err := os.Stat(filepath.Join(benchDir, "go.mod")); err == nil {
		bench, err := load.Load(benchDir, []string{"./..."})
		if err != nil {
			return &index{err: err}
		}
		pkgs = append(pkgs[:len(pkgs):len(pkgs)], bench...)
	}
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
						self = key(fn)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.Info.Uses[id].(*types.Func); ok && key(fn) != self {
							idx.used[key(fn)] = true
						}
					}
					return true
				})
			}
		}
	}

	// The interfaces a call can go through: error, fmt.Stringer (fmt calls
	// it), and every interface the module declares or names (io.Reader).
	ifaces := map[*types.Interface]bool{stringer(): true}
	ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	var named []*types.Named
	for _, p := range prog.Pkgs {
		for i, objs := range []map[*ast.Ident]types.Object{p.Info.Defs, p.Info.Uses} {
			for _, obj := range objs {
				tn, ok := obj.(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				n, ok := tn.Type().(*types.Named)
				if !ok || n.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces[it] = true
				} else if i == 0 {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
	next:
		for it := range ifaces {
			// Methods match by name and by parameter and result types, so
			// two type-checked copies of a package agree.
			var hit []string
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				sel := ms.Lookup(m.Pkg(), m.Name())
				if sel == nil || shape(sel.Type()) != shape(m.Type()) {
					continue next
				}
				hit = append(hit, key(sel.Obj().(*types.Func)))
			}
			for _, k := range hit {
				idx.used[k] = true
			}
		}
	}
	return idx
}

// shape is a signature's parameter and result types as text, without names.
func shape(t types.Type) string {
	sig := t.(*types.Signature)
	s := ""
	if sig.Variadic() {
		s = "..."
	}
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tuple.Len(); i++ {
			s += types.TypeString(tuple.At(i).Type(), nil) + ","
		}
		s += ";"
	}
	return s
}

// stringer is fmt.Stringer's method set.
func stringer() *types.Interface {
	result := types.NewTuple(types.NewVar(token.NoPos, nil, "", types.Typ[types.String]))
	sig := types.NewSignatureType(nil, nil, nil, nil, result, false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String", sig)}, nil).Complete()
}
