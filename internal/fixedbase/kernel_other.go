//go:build !amd64

package fixedbase

import "math/big"

// haveADX is false off amd64: every step takes the portable row loop.
const haveADX = false

func montRowsADX(w, x, y, m *big.Word, k int, mInv big.Word) {
	panic("fixedbase: the Montgomery kernel is amd64 only")
}
