// Package fixedbase is linkname analyzer testdata: the one package (by path
// suffix) allowed a //go:linkname, with its one allowed target and a wrong
// one.
package fixedbase

import (
	"math/big"
	_ "unsafe" // for go:linkname
)

//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

//go:linkname subVV math/big.subVV // want `must target math/big\.addMulVVW`
//go:noescape
func subVV(z, x, y []big.Word) (c big.Word)
