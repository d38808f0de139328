// Package fixedbase computes g^x mod m for a base g fixed in advance, by a
// comb of precomputed window powers: entry (i, j) of the table is
// g^(j·16^i) mod m, so one exponentiation is at most one modular
// multiplication per 4-bit digit of x and no squarings. Building the table
// costs fifteen multiplications per window, several full exponentiations'
// worth, so it pays only for a base that is raised many times.
//
// Two packages raise a fixed base: internal/ahe draws every Paillier
// randomizer as gn^x mod n², and internal/vsr computes every Feldman
// commitment as G^v mod P. Both walk this one table (docs/KERNELS.md,
// "Fixed-base combs").
//
// The table and the walk are math/big values: each step is one Mul into
// caller-supplied scratch and one QuoRem back into the accumulator, so once
// the scratch has grown to size a walk allocates nothing.
package fixedbase

import "math/big"

const (
	windowBits = 4
	rowLen     = 1<<windowBits - 1 // nonzero digit values per window
)

// Table is the comb for one base modulo one modulus. It is immutable after
// New and safe for concurrent use; the mutable state of a walk lives in the
// scratch its caller passes to Exp.
type Table struct {
	mod *big.Int
	// entries[i·rowLen + j−1] = g^(j·16^i) mod m, for digit values j = 1..15.
	entries []big.Int
}

// New precomputes the comb for g modulo m over exponents of up to expBytes
// bytes. Each window's powers are fifteen multiplications by the previous
// entry, and the last entry (g^(15·16^i)) times the window base is exactly
// the next window's base, so no squarings are needed anywhere.
func New(g, m *big.Int, expBytes int) *Table {
	windows := expBytes * 8 / windowBits
	t := &Table{mod: new(big.Int).Set(m), entries: make([]big.Int, windows*rowLen)}
	base := new(big.Int).Mod(g, m)
	prod, quo := new(big.Int), new(big.Int)
	for i := 0; i < windows; i++ {
		row := t.entries[i*rowLen : (i+1)*rowLen]
		row[0].Set(base)
		for j := 1; j < rowLen; j++ {
			prod.Mul(&row[j-1], base)
			quo.QuoRem(prod, m, &row[j])
		}
		prod.Mul(&row[rowLen-1], base)
		quo.QuoRem(prod, m, base) // g^(16^(i+1)): the next window's base
	}
	return t
}

// Exp sets z to g^x mod m, where x is the byte string exp read as a
// little-endian integer: nibble k of exp (low nibble first) is the digit of
// 16^k. exp may be shorter than the table's expBytes; a nonzero byte beyond
// it panics. mul and quo are scratch; none of the three may alias another or
// the table.
func (t *Table) Exp(z, mul, quo *big.Int, exp []byte) {
	z.SetInt64(1)
	for k, b := range exp {
		row := t.entries[2*k*rowLen:]
		if d := b & 0x0f; d != 0 {
			mul.Mul(z, &row[d-1])
			quo.QuoRem(mul, t.mod, z)
		}
		if d := b >> 4; d != 0 {
			mul.Mul(z, &row[rowLen+int(d)-1])
			quo.QuoRem(mul, t.mod, z)
		}
	}
}
