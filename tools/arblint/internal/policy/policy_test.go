package policy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the package directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the policy package")
		}
		dir = parent
	}
}

// governingSets is every policy structure that scopes an analyzer to
// packages, so the audit below sees the whole table.
func governingSets() map[string]Set {
	sets := map[string]Set{
		"SecrecyCritical":       SecrecyCritical,
		"SimulationExempt":      SimulationExempt,
		"DeterministicBench":    DeterministicBench,
		"BudgetApprovedCallers": BudgetApprovedCallers,
		"PoolOnly":              PoolOnly,
		"MustCheckErrors":       MustCheckErrors,
		"ReleaseBoundaries":     ReleaseBoundaries,
		"WALClients":            WALClients,
		"Linkname":              Linkname,
		"NoiseSource":           {NoiseSource: true},
	}
	tables := map[string]Set{
		"RawAggregateSources": {},
		"ReleaseSanitizers":   {},
		"SecretTypes":         {},
		"SecretSources":       {},
		"AliasProne":          {},
		"CheckpointFuncs":     {},
	}
	for key := range RawAggregateSources {
		tables["RawAggregateSources"][key] = true
	}
	for key := range ReleaseSanitizers {
		tables["ReleaseSanitizers"][key] = true
	}
	for key := range SecretTypes {
		tables["SecretTypes"][key] = true
	}
	for key := range SecretSources {
		tables["SecretSources"][key] = true
	}
	for key := range AliasProne {
		tables["AliasProne"][key] = true
	}
	for key := range CheckpointFuncs {
		tables["CheckpointFuncs"][key] = true
	}
	for name, s := range tables {
		sets[name] = s
	}
	return sets
}

// TestEveryInternalPackageGoverned fails when a package under internal/ is
// neither covered by a governing set nor recorded in Unregulated: adding a
// package forces an explicit policy decision.
func TestEveryInternalPackageGoverned(t *testing.T) {
	root := repoRoot(t)
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	sets := governingSets()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := "internal/" + e.Name()
		hasGo := false
		files, err := os.ReadDir(filepath.Join(root, "internal", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.HasSuffix(f.Name(), ".go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			continue
		}
		governed := Unregulated.Matches(pkg)
		for _, s := range sets {
			if s.Matches(pkg) {
				governed = true
			}
		}
		if !governed {
			t.Errorf("%s is neither covered by a policy set nor listed in Unregulated: decide and record its policy", pkg)
		}
		if Unregulated.Matches(pkg) {
			for name, s := range sets {
				if s.Matches(pkg) {
					t.Errorf("%s is listed in Unregulated but also governed by %s: drop one", pkg, name)
				}
			}
		}
	}
}

// declared parses the non-test files of the repo package pkg and returns
// the names it declares at package level, split by kind: named types, and
// functions — a plain function under its name, a method under both
// "method" and "Type.method" (the policy tables use either spelling).
func declared(t *testing.T, root, pkg string) (types, funcs map[string]bool) {
	t.Helper()
	notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, filepath.FromSlash(pkg)), notTest, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", pkg, err)
	}
	types, funcs = map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							types[ts.Name.Name] = true
						}
					}
				case *ast.FuncDecl:
					funcs[d.Name.Name] = true
					if d.Recv != nil && len(d.Recv.List) == 1 {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver T[P]
							recv = idx.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							funcs[id.Name+"."+d.Name.Name] = true
						}
					}
				}
			}
		}
	}
	return types, funcs
}

// TestPolicyKeysExist fails when a policy entry names a repo package that no
// longer exists on disk, or an identifier that package's non-test files no
// longer declare: deleting or renaming a package, type or function must
// retire (or follow with) its policy rows, not orphan them silently — a
// SecretTypes row naming a type that is gone taints nothing.
func TestPolicyKeysExist(t *testing.T) {
	root := repoRoot(t)
	sets := governingSets()
	sets["Unregulated"] = Unregulated
	for name, s := range sets {
		for key := range s {
			if !strings.HasPrefix(key, "internal/") && !strings.HasPrefix(key, "cmd/") {
				continue // stdlib entries like "crypto/rand" and "hash"
			}
			if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(key))); err != nil {
				t.Errorf("%s lists %q but that package does not exist: %v", name, key, err)
			}
		}
	}

	resolve := func(table, pkg, id string, wantType bool) {
		types, funcs := declared(t, root, pkg)
		kind, ok := "function or method", funcs[id]
		if wantType {
			kind, ok = "type", types[id]
		}
		if !ok {
			t.Errorf("%s lists %s.%s but no non-test file of that package declares a %s %s", table, pkg, id, kind, id)
		}
	}
	byKind := map[bool]map[string]map[string]map[string]bool{
		true:  {"SecretTypes": SecretTypes, "AliasProne": AliasProne},
		false: {"RawAggregateSources": RawAggregateSources, "ReleaseSanitizers": ReleaseSanitizers, "SecretSources": SecretSources},
	}
	for wantType, tables := range byKind {
		for table, rows := range tables {
			for pkg, ids := range rows {
				for id := range ids {
					resolve(table, pkg, id, wantType)
				}
			}
		}
	}
	for pkg, ids := range CheckpointFuncs {
		for _, id := range ids {
			resolve("CheckpointFuncs", pkg, id, false)
		}
	}
	for id := range NoiseConstructors {
		resolve("NoiseConstructors", NoiseSource, id, false)
	}
}
