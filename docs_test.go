package arboretum

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
)

func TestDocNamesResolve(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	tree := walkDocTree(t)
	bench := readBenchmarkNames(t)
	for _, doc := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
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
				for _, name := range testName.FindAllString(tok, -1) {
					if !tree.testDecls[name] {
						t.Errorf("%s:%d: `%s` names %s, which nothing in the module declares", doc, line(m[0]), span, name)
					}
				}
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
	baseNames  map[string]bool // every file's base name
	envRead    map[string]bool // ARBORETUM_* names some script or Go file reads
	benchmarks map[string]bool // Benchmark* functions of this module's tests
	testDecls  map[string]bool // top-level Test* declarations of this module
	spelled    map[string]bool // hyphenated words of Go string literals and CI workflows
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
	tree := docTree{map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}}
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
		isTest := strings.HasSuffix(path, "_test.go")
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
