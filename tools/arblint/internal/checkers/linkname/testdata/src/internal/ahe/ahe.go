// Package ahe is linkname analyzer testdata: a package outside the policy
// set pulling even the allowed target.
package ahe

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

//go:linkname addMulVVW math/big.addMulVVW // want `outside policy\.Linkname`
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)
