// Package linkname confines //go:linkname to the one use the module has: the
// fixed-base comb's pull of math/big's addMulVVW, which math/big keeps
// linkable for exactly this (go.dev/issue/67401). A linkname reaches past a
// package's API into symbols the toolchain may rename or drop, so a
// directive anywhere outside policy.Linkname is flagged, and inside it any
// target other than policy.LinknameTarget is. The check is syntactic: it
// reads the comment text of every file, tests included.
package linkname

import (
	"strings"

	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/policy"
)

// Analyzer is the linkname checker.
var Analyzer = &analysis.Analyzer{
	Name:      "linkname",
	Doc:       "confine //go:linkname to internal/fixedbase's pull of math/big.addMulVVW",
	TestFiles: true,
	Run:       run,
}

func run(pass *analysis.Pass) error {
	key := policy.Linkname.Match(pass.PkgPath)
	for _, f := range append(pass.Files[:len(pass.Files):len(pass.Files)], pass.TestFiles...) {
		for _, group := range f.Comments {
			for _, c := range group.List {
				args, ok := strings.CutPrefix(c.Text, "//go:linkname ")
				if !ok {
					continue
				}
				switch fields := strings.Fields(args); {
				case key == "":
					pass.Reportf(c.Pos(),
						"//go:linkname in %s, outside policy.Linkname: only the fixed-base comb may reach into another package's symbols", pass.PkgPath)
				case len(fields) != 2 || fields[1] != policy.LinknameTarget:
					pass.Reportf(c.Pos(),
						"//go:linkname in %s must target %s, not %q", key, policy.LinknameTarget, args)
				}
			}
		}
	}
	return nil
}
