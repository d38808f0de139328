package linkname_test

import (
	"testing"

	"arboretum/tools/arblint/internal/analysistest"
	"arboretum/tools/arblint/internal/checkers/linkname"
)

// TestLinkname covers the allowed pull and the wrong target in the one
// permitted package, and a directive in a package outside it.
func TestLinkname(t *testing.T) {
	analysistest.Run(t, linkname.Analyzer, "internal/fixedbase", "internal/ahe")
}
