// Package fixedbase computes y·g^x mod m for a base g fixed in advance, by a
// comb of precomputed window powers: entry (i, j) of the table is
// g^(j·64^i) mod m, so one exponentiation is at most one modular
// multiplication per 6-bit digit of x and no squarings. Building the table
// costs 63 multiplications per window, many full exponentiations' worth, so
// it pays only for a base that is raised many times.
//
// Two packages raise a fixed base: internal/ahe draws every Paillier
// randomizer as gn^x mod n² and multiplies in g^msg on the walk's last step,
// and internal/vsr computes every Feldman commitment as G^v mod P. Both walk
// this one table (docs/KERNELS.md, "Fixed-base combs").
//
// Each step is one Montgomery multiplication (HAC 14.36) for the odd modulus
// m: the table stores every entry in Montgomery form, g^(j·64^i)·R mod m with
// R = b^k (b the word base, k the words of m), and a step x·y·R⁻¹ mod m keeps
// the running product in that form. The walk leaves the form for free: its
// last step multiplies by the plain factor y, and R·R⁻¹ cancels. The step's
// row loop is ours; its inner loop is math/big's own assembly addMulVVW. The
// table is one flat word slab, k words per entry, and the walk's state is
// caller-supplied Scratch, so once the scratch has grown to size a walk
// allocates nothing.
//
// The package reaches addMulVVW through a //go:linkname that math/big keeps
// for this use (go.dev/issue/67401). A build with -tags math_big_pure_go
// does not export the symbol and fails to link; that tag is unsupported.
package fixedbase

import (
	"fmt"
	"math/big"
	"math/bits"
	_ "unsafe" // for go:linkname

	"arboretum/internal/parallel"
)

const (
	windowBits = 6
	rowLen     = 1<<windowBits - 1 // nonzero digit values per window
)

// addMulVVW adds x·y to z, len(z) == len(x), and returns the carry word.
//
//go:linkname addMulVVW math/big.addMulVVW
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

// Table is the comb for one base modulo one modulus. It is immutable after
// New and safe for concurrent use; the mutable state of a walk lives in the
// Scratch its caller passes to Exp and MulExp.
type Table struct {
	mod      big.Int
	m        []big.Word // mod's k words
	mInv     big.Word   // −m⁻¹ mod b
	k        int
	expBytes int
	// entries holds entry (i, j) = g^(j·64^i)·R mod m, for digit values
	// j = 1..63, as k little-endian words at (i·rowLen + j−1)·k.
	entries []big.Word
}

// Scratch is one walk's working state. Its zero value is ready to use; it
// must not be shared by concurrent walks.
type Scratch struct {
	// buf holds the running product (k words), the zero-padded factor y
	// (k words) and a step's accumulator (2k+1 words).
	buf []big.Word
}

// grow returns s's three buffers for a k-word modulus.
func (s *Scratch) grow(k int) (acc, y, w []big.Word) {
	if len(s.buf) < 4*k+1 {
		s.buf = make([]big.Word, 4*k+1)
	}
	return s.buf[:k], s.buf[k : 2*k], s.buf[2*k : 4*k+1]
}

// New precomputes the comb for g modulo m over exponents of up to expBytes
// bytes. m must be odd and above 1, or New panics. Window i's base
// g^(64^i)·R is six Montgomery squarings of window i−1's, a short chain run
// first; then each window's 62 further powers, one Montgomery step by the
// base apiece, are filled on the worker pool, one contiguous run of windows
// per worker. Every entry is the unique residue g^(j·64^i)·R mod m, so the
// table is the same at every worker count.
func New(g, m *big.Int, expBytes int) *Table {
	if m.Sign() <= 0 || m.Bit(0) == 0 || m.BitLen() < 2 {
		panic(fmt.Sprintf("fixedbase: modulus %v is not odd and above 1", m))
	}
	k := len(m.Bits())
	windows := (expBytes*8 + windowBits - 1) / windowBits
	t := &Table{
		k:        k,
		expBytes: expBytes,
		entries:  make([]big.Word, windows*rowLen*k),
	}
	t.mod.Set(m)
	t.m = t.mod.Bits()
	// Newton's iteration doubles the correct low bits of m₀⁻¹ each round,
	// from the 3 that m₀ itself gets right (m₀² ≡ 1 mod 8 for odd m₀).
	m0 := t.m[0]
	inv := m0
	for correct := 3; correct < bits.UintSize; correct *= 2 {
		inv *= 2 - m0*inv
	}
	t.mInv = -inv

	gR := new(big.Int).Mod(g, m)
	gR.Lsh(gR, uint(k*bits.UintSize)).Mod(gR, m)
	copy(t.entry(0, 1), gR.Bits())
	workers := min(parallel.Workers(0), windows)
	run := (windows + workers - 1) / workers
	ws := make([]big.Word, workers*(2*k+1))
	for i := 1; i < windows; i++ {
		base := t.entry(i, 1)
		copy(base, t.entry(i-1, 1))
		for range windowBits {
			t.step(base, base, base, ws)
		}
	}
	if err := parallel.ForEach(nil, workers, workers, func(c int) error {
		w := ws[c*(2*k+1) : (c+1)*(2*k+1)]
		for i := c * run; i < min((c+1)*run, windows); i++ {
			base := t.entry(i, 1)
			for j := 2; j <= rowLen; j++ {
				t.step(t.entry(i, j), t.entry(i, j-1), base, w)
			}
		}
		return nil
	}); err != nil {
		panic(err) // unreachable: no task fails and no context cancels
	}
	return t
}

// entry returns the k words of g^(j·64^i)·R mod m, capped so no append can
// reach the next entry.
func (t *Table) entry(i, j int) []big.Word {
	off := (i*rowLen + j - 1) * t.k
	return t.entries[off : off+t.k : off+t.k]
}

// step sets z to x·y·R⁻¹ mod m for k-word x and y in [0, m), on w's 2k+1
// words. z may alias x or y. Row i adds x·y_i, then the multiple u·m of m
// that zeroes word i, so after k rows the low k words are zero and words
// k..2k hold the product divided by R, below 2m.
func (t *Table) step(z, x, y, w []big.Word) {
	k, m := t.k, t.m
	clear(w[:k+1])
	for i, yi := range y {
		row := w[i : i+k]
		c1 := addMulVVW(row, x, yi)
		c2 := addMulVVW(row, m, row[0]*t.mInv)
		lo, cc1 := bits.Add(uint(w[i+k]), uint(c1), 0)
		lo, cc2 := bits.Add(lo, uint(c2), 0)
		w[i+k], w[i+k+1] = big.Word(lo), big.Word(cc1+cc2)
	}
	var borrow uint
	for j, mj := range m {
		var d uint
		d, borrow = bits.Sub(uint(w[k+j]), uint(mj), borrow)
		z[j] = big.Word(d)
	}
	if borrow > uint(w[2*k]) { // the result was already below m
		copy(z, w[k:2*k])
	}
}

// Exp sets z to g^x mod m, where x is the byte string exp read as a
// little-endian integer: bits 6i..6i+5 of it are the digit of 64^i. exp may
// be shorter than the table's expBytes; a longer one panics. z must not
// alias s or the table.
func (t *Table) Exp(z *big.Int, s *Scratch, exp []byte) {
	t.MulExp(z, s, bigOne, exp)
}

var bigOne = big.NewInt(1)

// MulExp sets z to y·g^x mod m for y in [0, m), with x read from exp as Exp
// reads it. The first nonzero digit copies its entry and each later one is a
// Montgomery step; the last step, by y itself, returns the product to plain
// form. An all-zero exponent sets z to y. z may alias y but not s or the
// table.
func (t *Table) MulExp(z *big.Int, s *Scratch, y *big.Int, exp []byte) {
	if len(exp) > t.expBytes {
		panic(fmt.Sprintf("fixedbase: %d-byte exponent exceeds the table's %d bytes", len(exp), t.expBytes))
	}
	if y.Sign() < 0 || y.Cmp(&t.mod) >= 0 {
		panic("fixedbase: factor outside [0, m)")
	}
	acc, yw, w := s.grow(t.k)
	started := false
	for i, n := 0, (len(exp)*8+windowBits-1)/windowBits; i < n; i++ {
		at := i * windowBits
		b := uint(exp[at/8])
		if at/8+1 < len(exp) {
			b |= uint(exp[at/8+1]) << 8
		}
		d := int(b>>(at%8)) & (1<<windowBits - 1)
		switch {
		case d == 0:
		case started:
			t.step(acc, acc, t.entry(i, d), w)
		default:
			copy(acc, t.entry(i, d))
			started = true
		}
	}
	if !started {
		z.Set(y)
		return
	}
	clear(yw)
	copy(yw, y.Bits())
	zw := z.Bits()
	if cap(zw) < t.k {
		zw = make([]big.Word, t.k)
	}
	zw = zw[:t.k]
	t.step(zw, acc, yw, w)
	z.SetBits(zw)
}
