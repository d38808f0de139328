package arboretum

import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The doc gate: every name the living docs hand a reader must resolve in
// the tree. A backticked repo path must exist, an ARBORETUM_* variable must
// be read by some script or Go file, a Benchmark* name must be declared
// in some _test.go of this module, and a backticked Test* name must be a
// top-level declaration of this module outside bench/ — any kind, since
// bgv.TestParams and TestRNSParams are vars. A backticked metric name of the
// form layer.name_unit must be one BENCHMARK.json declares, and a backticked
// two-word name like collect-wide must be one of its workloads, unless a Go
// string literal outside bench/ or a CI workflow spells it (a planner choice,
// a reported metric, an artifact). The gate only reads BENCHMARK.json.
//
// A backticked Go name whose first word is the name of an internal/ package
// — pkg.Ident, pkg.Type.Member (a method or field) or the docs' shorthand
// pkg.Method — must be declared in a non-test file of that package; the
// shorthand resolves when any type there has that method. A name the
// standard library package of the same name declares resolves too
// (runtime.GOMAXPROCS).
//
// A backticked command line — a span that starts with arboretum and a
// subcommand, arboretumd, experiments or arbload — may name only the -flags
// that command's FlagSet declares in its cmd/*/main.go.
//
// The verify skill notes (.claude/skills/verify/SKILL.md) are scanned with
// the living docs: they hand the next reader commands to paste.
//
// bench/README.md is not scanned: bench/ is the benchmark's own module and
// changes only together with the benchmark, and its prose still names the
// StreamIngest switch that collection no longer has. CHANGES.md and
// ROADMAP.md are history, not reference.

var (
	backtickSpan = regexp.MustCompile("`([^`\n]+)`")
	braceGroup   = regexp.MustCompile(`(\S*)\{([^{}]*)\}`)
	envName      = regexp.MustCompile(`ARBORETUM_[A-Z0-9_]+`)
	benchName    = regexp.MustCompile(`\bBenchmark[A-Z0-9]\w*`)
	testName     = regexp.MustCompile(`\bTest[A-Z]\w*`)
	goEnvRead    = regexp.MustCompile(`(?:Getenv|LookupEnv)\("(ARBORETUM_[A-Z0-9_]+)"`)
	shEnvRead    = regexp.MustCompile(`\$\{?(ARBORETUM_[A-Z0-9_]+)`)
	qualifiedID  = regexp.MustCompile(`^(.+)\.[A-Z]\w*$`)
	metricName   = regexp.MustCompile(`^[a-z]+\.[a-z0-9]+(?:_[a-z0-9]+)+$`)
	pairName     = regexp.MustCompile(`^[a-z]+-[a-z]+$`)
	hyphenated   = regexp.MustCompile(`[a-z0-9]+(?:-[a-z0-9]+)+`)
	goName       = regexp.MustCompile(`^([a-z]\w*)\.(?:\(\*)?(\w+)\)?(?:\.(\w+))?$`)
	typeArgs     = regexp.MustCompile(`\[[^\]]*\]`)
	cliFlag      = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=\S*)?$`)
)

// livingMarkdownCeiling bounds the bytes of living Markdown — the files
// scripts/loc.sh counts: README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md
// and bench/README.md. A change may lower it to what it leaves; it may raise
// it only with a CHANGES.md line that says why.
const livingMarkdownCeiling = 219954

// TestLivingMarkdownCeiling: the living docs stay within their ceiling. (It
// only reads bench/README.md, which changes with the benchmark alone.)
func TestLivingMarkdownCeiling(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "bench/README.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		total += len(data)
	}
	if total > livingMarkdownCeiling {
		t.Errorf("living Markdown is %d bytes, over its ceiling of %d: say it in fewer words", total, livingMarkdownCeiling)
	}
}

func TestDocNamesResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	tree := walkDocTree(t)
	bench := readBenchmarkNames(t)
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		line := func(off int) int { return strings.Count(text[:off], "\n") + 1 }
		for _, m := range backtickSpan.FindAllStringSubmatchIndex(text, -1) {
			span := text[m[2]:m[3]]
			for _, tok := range strings.Fields(expandBraces(span)) {
				if p, ok := repoPath(tok); ok && !tree.resolves(p) {
					t.Errorf("%s:%d: `%s` names %s, which does not exist", doc, line(m[0]), span, p)
				}
				if strings.Contains(tok, "*") { // a pattern, like TestAllocGate*
					continue
				}
				name := strings.Trim(tok, `"'(),:;`)
				if metricName.MatchString(name) && !bench.metrics[name] {
					t.Errorf("%s:%d: `%s` names metric %s, which BENCHMARK.json does not declare", doc, line(m[0]), span, name)
				}
				if pairName.MatchString(name) && !bench.workloads[name] && !tree.spelled[name] {
					t.Errorf("%s:%d: `%s` names %s, which is no BENCHMARK.json workload and no source spells", doc, line(m[0]), span, name)
				}
				if !tree.resolvesGo(name) {
					t.Errorf("%s:%d: `%s` names %s, which no non-test file of that package declares", doc, line(m[0]), span, name)
				}
				for _, name := range testName.FindAllString(tok, -1) {
					if !tree.testDecls[name] {
						t.Errorf("%s:%d: `%s` names %s, which nothing in the module declares", doc, line(m[0]), span, name)
					}
				}
			}
			for _, flag := range tree.unknownFlags(span) {
				t.Errorf("%s:%d: `%s` names %s, which that command does not declare", doc, line(m[0]), span, flag)
			}
		}
		for _, m := range envName.FindAllStringIndex(text, -1) {
			if name := text[m[0]:m[1]]; !tree.envRead[name] {
				t.Errorf("%s:%d: no script or Go file reads %s", doc, line(m[0]), name)
			}
		}
		for _, m := range benchName.FindAllStringIndex(text, -1) {
			if name := text[m[0]:m[1]]; !tree.benchmarks[name] {
				t.Errorf("%s:%d: no _test.go declares %s", doc, line(m[0]), name)
			}
		}
	}
}

// TestDocGoNamesResolver holds the Go-name rule to one good and one planted
// bad name of each form: a method or field that was deleted does not
// resolve. The command-line
// rule gets planted names too: neither plan nor run has -workers, run has
// -faults.
func TestDocGoNamesResolver(t *testing.T) {
	tree := walkDocTree(t)
	for name, want := range map[string]bool{
		"bgv.PaperRNSParams":     true,  // pkg.Ident
		"bgv.NoSuchParams":       false, //
		"bgv.Context.Mul":        true,  // pkg.Type.Method
		"bgv.Context.Sum":        false, // deleted with the scheme's unused operations
		"runtime.Config.Faults":  true,  // pkg.Type.Field
		"runtime.Config.Workers": false, // deleted: GOMAXPROCS sizes the pools
		"vsr.(*Group).Commit":    true,  // pkg.(*Type).Method
		"vsr.(*Group).Deal":      false, //
		"vsr.Commit":             true,  // shorthand pkg.Method
		"bgv.Decrypt":            false, // the oracle is the test helper decrypt
		"runtime.GOMAXPROCS":     true,  // the standard library's runtime
		"runtime.GOMAXPROCESSES": false, //
		"internal/wal.Log[R]":    true,  // path-qualified, type arguments
		"plan.go":                true,  // a file, not a Go name
	} {
		if got := tree.resolvesGo(name); got != want {
			t.Errorf("resolvesGo(%q) = %v, want %v", name, got, want)
		}
	}
	for span, want := range map[string]bool{
		"arboretum plan -workers": false,
		"arboretum run -workers":  false,
		"arboretum run -faults":   true,
		"arboretumd -faults":      true,
		"arbload -faults":         false,
	} {
		if got := tree.unknownFlags(span) == nil; got != want {
			t.Errorf("unknownFlags(%q) = %v, want every flag resolved %v", span, tree.unknownFlags(span), want)
		}
	}
}

// unknownFlags returns the -flags a command-line span names that its
// command does not declare; a span that is no command line names none. The
// command's arguments end at the first pipe, list operator or redirection.
func (tree docTree) unknownFlags(span string) []string {
	words := strings.Fields(span)
	if len(words) == 0 {
		return nil
	}
	cmd := words[0]
	switch {
	case cmd == "arboretum" && len(words) > 1:
		cmd, words = cmd+" "+words[1], words[2:]
	case cmd == "arboretumd" || cmd == "experiments" || cmd == "arbload":
		words = words[1:]
	default:
		return nil
	}
	var unknown []string
	for _, w := range words {
		if w == "|" || w == "||" || w == "&&" || w == ";" || strings.ContainsAny(w[:1], "<>") || strings.HasPrefix(w, "2>") {
			break
		}
		if m := cliFlag.FindStringSubmatch(strings.Trim(w, `[](),;"'`)); m != nil && !tree.cliFlags[cmd][m[1]] {
			unknown = append(unknown, "-"+m[1])
		}
	}
	return unknown
}

// expandBraces spells internal/{ahe, bgv} out as internal/ahe internal/bgv.
func expandBraces(s string) string {
	return braceGroup.ReplaceAllStringFunc(s, func(group string) string {
		m := braceGroup.FindStringSubmatch(group)
		var out []string
		for _, item := range strings.Split(m[2], ",") {
			out = append(out, m[1]+strings.TrimSpace(item))
		}
		return strings.Join(out, " ")
	})
}

// repoPath reports whether one word of a backticked span names a repo path:
// one under scripts/, internal/, cmd/ or docs/, or a .json or .sh file.
// Patterns, placeholders and elisions name nothing.
func repoPath(tok string) (string, bool) {
	tok = strings.TrimPrefix(strings.Trim(tok, `"'(),:;`), "./")
	if strings.ContainsAny(tok, "*<>=$…") || strings.Contains(tok, "...") {
		return "", false
	}
	for _, dir := range []string{"scripts/", "internal/", "cmd/", "docs/"} {
		if strings.HasPrefix(tok, dir) {
			return tok, true
		}
	}
	return tok, strings.HasSuffix(tok, ".json") || strings.HasSuffix(tok, ".sh")
}

// benchmarkNames are the names BENCHMARK.json declares.
type benchmarkNames struct {
	metrics   map[string]bool // end-to-end and per-layer metrics
	workloads map[string]bool
}

func readBenchmarkNames(t *testing.T) benchmarkNames {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named []struct{ Name string }
	var decl struct {
		Workloads named
		EndToEnd  named `json:"end_to_end"`
		PerLayer  named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	names := benchmarkNames{map[string]bool{}, map[string]bool{}}
	for _, w := range decl.Workloads {
		names.workloads[w.Name] = true
	}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names.metrics[m.Name] = true
	}
	return names
}

// docTree is what the gate resolves names against, gathered in one walk.
type docTree struct {
	baseNames  map[string]bool            // every file's base name
	envRead    map[string]bool            // ARBORETUM_* names some script or Go file reads
	benchmarks map[string]bool            // Benchmark* functions of this module's tests
	testDecls  map[string]bool            // top-level Test* declarations of this module
	spelled    map[string]bool            // hyphenated words of Go string literals and CI workflows
	goDecls    map[string]map[string]bool // internal/ package name → its non-test declarations
	cliFlags   map[string]map[string]bool // "arboretum plan", "arboretumd", … → the flags it declares
}

// resolvesGo reports whether name, if it is a Go name in an internal/
// package (see the gate's comment), names a declaration there or in the
// standard library package of the same name. Other names resolve trivially:
// file names, metrics, and the Benchmark*/Test* names the gate checks apart.
func (tree docTree) resolvesGo(name string) bool {
	m := goName.FindStringSubmatch(typeArgs.ReplaceAllString(strings.TrimPrefix(name, "internal/"), ""))
	if m == nil || tree.goDecls[m[1]] == nil || tree.baseNames[name] || metricName.MatchString(name) ||
		strings.HasPrefix(m[2], "Benchmark") || strings.HasPrefix(m[2], "Test") {
		return true
	}
	member := m[2]
	if m[3] != "" {
		member += "." + m[3]
	}
	if tree.goDecls[m[1]][member] {
		return true
	}
	std, err := importer.Default().Import(m[1])
	if err != nil {
		return false
	}
	obj := std.Scope().Lookup(m[2])
	if obj == nil || m[3] == "" {
		return obj != nil
	}
	sel, _, _ := types.LookupFieldOrMethod(obj.Type(), true, std, m[3])
	return sel != nil
}

// resolves reports whether p exists: a bare file name anywhere in the tree,
// a path from the repository root, or a root path qualified by an exported
// identifier (internal/hashing.Write).
func (tree docTree) resolves(p string) bool {
	if !strings.Contains(p, "/") {
		return tree.baseNames[p]
	}
	if _, err := os.Stat(p); err == nil {
		return true
	}
	if m := qualifiedID.FindStringSubmatch(p); m != nil {
		_, err := os.Stat(m[1])
		return err == nil
	}
	return false
}

func walkDocTree(t *testing.T) docTree {
	tree := docTree{map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{},
		map[string]map[string]bool{}, map[string]map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		tree.baseNames[d.Name()] = true
		reads := map[string]*regexp.Regexp{".go": goEnvRead, ".sh": shEnvRead}[filepath.Ext(path)]
		if reads == nil {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range reads.FindAllStringSubmatch(string(src), -1) {
			tree.envRead[m[1]] = true
		}
		// bench/ is a module of its own, and testdata is never compiled.
		slashed := filepath.ToSlash(path)
		if filepath.Ext(path) != ".go" || strings.HasPrefix(slashed, "bench/") ||
			strings.Contains(slashed, "/testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if dir, ok := strings.CutSuffix(slashed, "/main.go"); ok && strings.HasPrefix(dir, "cmd/") {
			declaredFlags(f, strings.TrimPrefix(dir, "cmd/"), tree.cliFlags)
		}
		isTest := strings.HasSuffix(path, "_test.go")
		if !isTest && strings.HasPrefix(slashed, "internal/") {
			decls := tree.goDecls[f.Name.Name]
			if decls == nil {
				decls = map[string]bool{}
				tree.goDecls[f.Name.Name] = decls
			}
			for _, name := range memberNames(f) {
				decls[name] = true
			}
		}
		for _, name := range topLevelNames(f) {
			if isTest && strings.HasPrefix(name, "Benchmark") {
				tree.benchmarks[name] = true
			}
			if strings.HasPrefix(name, "Test") {
				tree.testDecls[name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				for _, w := range hyphenated.FindAllString(lit.Value, -1) {
					tree.spelled[w] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range workflows {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range hyphenated.FindAllString(string(src), -1) {
			tree.spelled[w] = true
		}
	}
	return tree
}

// flagDefiners are the flag package's functions and FlagSet methods that
// define a flag named by their first argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolFunc": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
}

// declaredFlags adds the flags each function of command cmd's main.go
// defines, on the flag package or on the FlagSet it makes, under the
// command's name: cmd itself, or "cmd sub" for a FlagSet named sub.
func declaredFlags(f *ast.File, cmd string, into map[string]map[string]bool) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		key, definers := cmd, map[string]bool{"flag": true}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if recv, name := selectorCall(call); recv != "flag" || name != "NewFlagSet" {
				return true
			}
			if name, isLit := stringLit(call.Args[0]); isLit && name != cmd {
				key = cmd + " " + name
			}
			if id, isID := as.Lhs[0].(*ast.Ident); isID {
				definers[id.Name] = true
			}
			return true
		})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if recv, name := selectorCall(call); !definers[recv] || !flagDefiners[name] {
				return true
			}
			if name, isLit := stringLit(call.Args[0]); isLit {
				if into[key] == nil {
					into[key] = map[string]bool{}
				}
				into[key][name] = true
			}
			return true
		})
	}
}

// selectorCall returns the identifier and the name of a call of the form
// x.Name(…), and two empty strings for any other call.
func selectorCall(call *ast.CallExpr) (recv, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	return id.Name, sel.Sel.Name
}

// stringLit returns the value of a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// topLevelNames returns the names f declares at package level: functions
// without a receiver, types, vars and consts.
func topLevelNames(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return names
}

// memberNames returns what f declares under the gate's Go-name forms: its
// top-level names, Type.Method and Type.Field for its methods, struct fields
// and interface methods, and each method name alone (the shorthand).
func memberNames(f *ast.File) []string {
	names := topLevelNames(f)
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if idx, ok := recv.(*ast.IndexExpr); ok {
				recv = idx.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				names = append(names, id.Name+"."+d.Name.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				var fields *ast.FieldList
				switch t := ts.Type.(type) {
				case *ast.StructType:
					fields = t.Fields
				case *ast.InterfaceType:
					fields = t.Methods
				default:
					continue
				}
				for _, field := range fields.List {
					for _, id := range field.Names {
						names = append(names, ts.Name.Name+"."+id.Name)
					}
				}
			}
		}
	}
	return names
}
