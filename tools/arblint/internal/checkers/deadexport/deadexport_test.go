package deadexport_test

import (
	"testing"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/analysistest"
	"arboretum/tools/arblint/internal/arblint"
	"arboretum/tools/arblint/internal/checkers/deadexport"
)

// TestDeadExport covers test-only callers (exported, unexported, recursive),
// interface satisfaction (a module interface, io.Reader, fmt.Stringer), a
// name that matches an interface method the type does not implement, a
// bench/-only caller, and a directive.
func TestDeadExport(t *testing.T) {
	analysistest.Run(t, deadexport.Analyzer, "internal/lib", "cmd/app")
}

// TestPartialLoadReportsNothing loads the same package without its callers:
// a partial load cannot see them, so the analyzer stays silent, and its
// directive is not reported stale.
func TestPartialLoadReportsNothing(t *testing.T) {
	findings, err := arblint.Run(".", []string{"./testdata/src/internal/lib"}, []*analysis.Analyzer{deadexport.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("partial load reported %s: %s (%s)", f.Position, f.Message, f.Analyzer)
	}
}
