// Package fixedbase computes g^x mod m for a base g fixed in advance, by a
// comb of precomputed window powers: entry (i, j) of the table is
// g^(j·64^i) mod m, so one exponentiation is at most one modular
// multiplication per 6-bit digit of x and no squarings. Building the table
// costs 63 multiplications per window, many full exponentiations' worth, so
// it pays only for a base that is raised many times.
//
// Two packages raise a fixed base: internal/ahe draws every Paillier
// randomizer as gn^x mod n², and internal/vsr computes every Feldman
// commitment as G^v mod P. Both walk this one table (docs/KERNELS.md,
// "Fixed-base combs").
//
// Each step reduces by Barrett's method (HAC 14.42) on a μ = ⌊b^(2k)/m⌋ the
// table precomputes (b the word base, k the words of m): three math/big
// Muls, one Sub and at most two correcting Subs, where a QuoRem would spend
// most of the step dividing. The table is one flat word slab, k words per
// entry. Everything is math/big on caller-supplied Scratch, so once the
// scratch has grown to size a walk allocates nothing.
package fixedbase

import (
	"fmt"
	"math/big"
	"math/bits"
)

const (
	windowBits = 6
	rowLen     = 1<<windowBits - 1 // nonzero digit values per window
)

// Table is the comb for one base modulo one modulus. It is immutable after
// New and safe for concurrent use; the mutable state of a walk lives in the
// Scratch its caller passes to Exp.
type Table struct {
	mod      *big.Int
	mu       *big.Int // ⌊b^(2k)/m⌋, the Barrett constant
	k        int      // words of m
	expBytes int
	// entries holds entry (i, j) = g^(j·64^i) mod m, for digit values
	// j = 1..63, as k little-endian words at (i·rowLen + j−1)·k.
	entries []big.Word
}

// Scratch is one walk's working state. Its zero value is ready to use; it
// must not be shared by concurrent walks.
type Scratch struct {
	prod big.Int // the double-width product being reduced
	q2   big.Int // ⌊prod/b^(k−1)⌋·μ
	qm   big.Int // the quotient estimate times m
	// Read-only views, through SetBits, into prod, q2 and the table.
	q1, q3, e big.Int
}

// New precomputes the comb for g modulo m over exponents of up to expBytes
// bytes. Each window's powers are 63 multiplications by the previous entry,
// and the last entry (g^(63·64^i)) times the window base is exactly the next
// window's base, so no squarings are needed anywhere.
func New(g, m *big.Int, expBytes int) *Table {
	k := len(m.Bits())
	windows := (expBytes*8 + windowBits - 1) / windowBits
	mu := new(big.Int).Lsh(big.NewInt(1), uint(2*k*bits.UintSize))
	t := &Table{
		mod:      new(big.Int).Set(m),
		mu:       mu.Quo(mu, m),
		k:        k,
		expBytes: expBytes,
		entries:  make([]big.Word, windows*rowLen*k),
	}
	var s Scratch
	base, acc := new(big.Int).Mod(g, m), new(big.Int)
	for i := 0; i < windows; i++ {
		acc.Set(base)
		copy(t.entry(i, 1), acc.Bits())
		for j := 2; j <= rowLen; j++ {
			t.MulMod(acc, &s, acc, base)
			copy(t.entry(i, j), acc.Bits())
		}
		t.MulMod(base, &s, acc, base) // g^(64^(i+1)): the next window's base
	}
	return t
}

// entry returns the k words of g^(j·64^i) mod m, capped so no append can
// reach the next entry.
func (t *Table) entry(i, j int) []big.Word {
	off := (i*rowLen + j - 1) * t.k
	return t.entries[off : off+t.k : off+t.k]
}

// Exp sets z to g^x mod m, where x is the byte string exp read as a
// little-endian integer: bits 6i..6i+5 of it are the digit of 64^i. exp may
// be shorter than the table's expBytes; a longer one panics. z must not
// alias s or the table.
func (t *Table) Exp(z *big.Int, s *Scratch, exp []byte) {
	if len(exp) > t.expBytes {
		panic(fmt.Sprintf("fixedbase: %d-byte exponent exceeds the table's %d bytes", len(exp), t.expBytes))
	}
	z.SetInt64(1)
	for i, n := 0, (len(exp)*8+windowBits-1)/windowBits; i < n; i++ {
		at := i * windowBits
		w := uint(exp[at/8])
		if at/8+1 < len(exp) {
			w |= uint(exp[at/8+1]) << 8
		}
		if d := int(w>>(at%8)) & (1<<windowBits - 1); d != 0 {
			s.e.SetBits(t.entry(i, d))
			t.MulMod(z, s, z, &s.e)
		}
	}
}

// MulMod sets z to x·y mod m for x and y in [0, m). z may alias x or y but
// not s or the table.
func (t *Table) MulMod(z *big.Int, s *Scratch, x, y *big.Int) {
	s.prod.Mul(x, y)
	p := s.prod.Bits()
	s.q1.SetBits(p[min(t.k-1, len(p)):])
	s.q2.Mul(&s.q1, t.mu)
	w := s.q2.Bits()
	s.q3.SetBits(w[min(t.k+1, len(w)):])
	s.qm.Mul(&s.q3, t.mod)
	// q3 undershoots ⌊prod/m⌋ by at most two (HAC 14.42).
	z.Sub(&s.prod, &s.qm)
	for z.Cmp(t.mod) >= 0 {
		z.Sub(z, t.mod)
	}
}
