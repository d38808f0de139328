// Package fixedbase computes y·g^x mod m for a base g fixed in advance, by
// the fixed-base comb of Lim and Lee (HAC 14.117). The t bits of x are laid
// out as h rows of a = ⌈t/h⌉ bits, bit i·a+c in row i and column c, and the
// a columns fall into v groups of b columns each. Entry (s, u) of the table,
// for every nonzero h-bit u, is Π_i g^(u_i·2^(i·a+s·b)) mod m, so column
// s·b+j of x, its h row bits read as u, contributes entry (s, u) raised to
// 2^j. A walk runs Horner over the column offsets j = b−1 … 0: one squaring
// per offset and one multiplication per nonzero group index, at most a+b−1
// steps. Building the table costs a chain of about (h−1)·a + (v−1)·b
// squarings and v·(2^h−1−h) multiplications, so a table pays only for a base
// that is raised many times, and how many sets its best shape.
//
// New therefore takes the number of walks the table will serve and picks
// the shape (h ≤ 9, v ≤ 8) that minimizes build + walks × walk in
// Montgomery steps: a pure function of the exponent length and the walk
// count (shapeFor). At the largest shape, 9 × 8 with 4,088 entries, a
// 512-bit x walks in 7 squarings and at most 57 multiplications.
//
// Two packages raise a fixed base: internal/ahe draws every Paillier
// randomizer as gn^x mod n² and multiplies in g^msg on the walk's last step,
// its table sized to the encryptions its key will serve, and internal/vsr
// computes every Feldman commitment as G^v mod P on one process-lifetime
// table (docs/KERNELS.md, "Fixed-base combs").
//
// Each step is one Montgomery multiplication (HAC 14.36) for the odd modulus
// m: the table stores every entry in Montgomery form, times R mod m with
// R = 2^(W·k) (W the bits of a word, k the words of m), and a step
// x·y·R⁻¹ mod m keeps the running product in that form. The walk leaves the
// form for free: its last step multiplies by the plain factor y, and R·R⁻¹
// cancels. The table is one flat word slab, k words per entry, and the
// walk's state is caller-supplied Scratch, so once the scratch has grown to
// size a walk allocates nothing.
//
// A step's k rows run on one of two paths; the final conditional
// subtraction is Go on both. On amd64 with ADX and BMI2, read from CPUID at
// init, a modulus of a multiple of 8 words takes montRowsADX, which runs
// all k rows in one assembly call on MULX and the two carry chains of ADCX
// and ADOX. That covers n² at 512-, 1,024- and 2,048-bit keys and vsr's P.
// Every other width, GOARCH and CPU takes the portable row loop, two calls
// a row to math/big's assembly addMulVVW, and the tests hold the kernel to
// it. The portable loop reaches addMulVVW through a //go:linkname that
// math/big keeps for this use (go.dev/issue/67401). A build with
// -tags math_big_pure_go does not export the symbol and fails to link; that
// tag is unsupported.
package fixedbase

import (
	"fmt"
	"math/big"
	"math/bits"
	_ "unsafe" // for go:linkname

	"arboretum/internal/parallel"
)

const (
	maxRows   = 9 // the most rows h a table has: a group index's bits
	maxGroups = 8 // the most column groups v a table has
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
	mInv     big.Word   // −m⁻¹ mod 2^W
	k        int
	kernel   bool // step's rows run on montRowsADX
	expBytes int
	shape
	span int // entries per group, one per nonzero index: 2^h − 1
	// entries holds entry (s, u) = Π_i g^(u_i·2^(i·a+s·b))·R mod m, for
	// u = 1..span, as k little-endian words at (s·span + u−1)·k.
	entries []big.Word
}

// shape is a comb's layout for one exponent length.
type shape struct {
	h int // rows, the bits of a group index
	a int // bits per row: ⌈8·expBytes/h⌉
	b int // columns per group: ⌈a/v⌉ for the v asked
	v int // groups: ⌈a/b⌉ ≤ maxGroups, so none is empty
}

// newShape lays 8·expBytes exponent bits out in h rows and at most groups
// column groups.
func newShape(expBytes, h, groups int) shape {
	a := (8*expBytes + h - 1) / h
	b := (a + groups - 1) / groups
	return shape{h: h, a: a, b: b, v: (a + b - 1) / b}
}

// build is the Montgomery steps New spends on the table: the squaring chain
// up to the last single-row entry and one step per multi-row entry.
func (sh shape) build() int {
	return (sh.h-1)*sh.a + (sh.v-1)*sh.b + sh.v*(1<<sh.h-1-sh.h)
}

// walk bounds one walk's Montgomery steps: b−1 squarings, a column indices
// after the first and the final step by y, counted as a+b.
func (sh shape) walk() int { return sh.a + sh.b }

// shapeFor returns the shape, over h ≤ maxRows rows and v ≤ maxGroups
// groups, that minimizes build + walks × walk for exponents of expBytes
// bytes, the first (fewest rows, then fewest groups) among equals. Walks
// past 2^40 count as 2^40, which already makes the walk the whole cost: a
// table that lives for the process passes math.MaxInt and gets 9 × 8 at
// both callers' lengths. For 64-byte exponents the shape is 8 × 5 from 84
// to 125 walks and 9 × 8 from 506 up; docs/KERNELS.md ("Fixed-base combs")
// lists every crossover.
func shapeFor(expBytes, walks int) shape {
	w := min(max(int64(walks), 1), 1<<40)
	var best shape
	bestCost := int64(-1)
	for h := 1; h <= maxRows; h++ {
		for groups := 1; groups <= maxGroups; groups++ {
			sh := newShape(expBytes, h, groups)
			if cost := int64(sh.build()) + w*int64(sh.walk()); bestCost < 0 || cost < bestCost {
				best, bestCost = sh, cost
			}
		}
	}
	return best
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

// New precomputes the comb for g modulo m over exponents of 1 to expBytes
// bytes, in the shape that serves walks walks at the least total cost
// (shapeFor). m must be odd and above 1, or New panics. One serial chain of
// Montgomery squarings from g·R yields every single-row entry
// g^(2^(i·a+s·b))·R; then each group's other entries, entry (s, u) the
// step of entry (s, u minus its lowest bit) by entry (s, that bit), are
// filled on the worker pool, one group per task. Every entry is the unique
// residue it names, so the table is the same at every worker count.
func New(g, m *big.Int, expBytes, walks int) *Table {
	if m.Sign() <= 0 || m.Bit(0) == 0 || m.BitLen() < 2 {
		panic(fmt.Sprintf("fixedbase: modulus %v is not odd and above 1", m))
	}
	k := len(m.Bits())
	sh := shapeFor(expBytes, walks)
	h, a, b, v := sh.h, sh.a, sh.b, sh.v
	span := 1<<h - 1
	t := &Table{
		k:        k,
		kernel:   haveADX && k%8 == 0,
		expBytes: expBytes,
		shape:    sh,
		span:     span,
		entries:  make([]big.Word, v*span*k),
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
	ws := make([]big.Word, v*(2*k+1))
	// The single-row entries' exponents i·a+s·b rise with (i, s), since
	// (v−1)·b < a, so one chain of squarings visits them in order.
	pow := t.entry(0, 1)
	copy(pow, gR.Bits())
	at := 0
	for i := range h {
		for s := range v {
			e := t.entry(s, 1<<i)
			copy(e, pow)
			for ; at < i*a+s*b; at++ {
				t.step(e, e, e, ws)
			}
			pow = e
		}
	}
	if err := parallel.ForEach(v, 0, func(s int) error {
		w := ws[s*(2*k+1) : (s+1)*(2*k+1)]
		for u := 3; u <= span; u++ {
			if low := u & -u; low != u {
				t.step(t.entry(s, u), t.entry(s, u-low), t.entry(s, low), w)
			}
		}
		return nil
	}); err != nil {
		panic(err) // unreachable: no task fails and no context cancels
	}
	return t
}

// entry returns the k words of entry (s, u), capped so no append can reach
// the next entry.
func (t *Table) entry(s, u int) []big.Word {
	off := (s*t.span + u - 1) * t.k
	return t.entries[off : off+t.k : off+t.k]
}

// step sets z to x·y·R⁻¹ mod m for k-word x and y in [0, m), on w's 2k+1
// words. z may alias x or y. Row i adds x·y_i, then the multiple u·m of m
// that zeroes word i, so after k rows the low k words are zero and words
// k..2k hold the product divided by R, below 2m. The rows run on
// montRowsADX when t.kernel is set and on the portable loop otherwise.
func (t *Table) step(z, x, y, w []big.Word) {
	k, m := t.k, t.m
	if t.kernel {
		clear(w[:k])
		montRowsADX(&w[0], &x[0], &y[0], &m[0], k, t.mInv)
	} else {
		clear(w[:k+1])
		for i, yi := range y {
			row := w[i : i+k]
			c1 := addMulVVW(row, x, yi)
			c2 := addMulVVW(row, m, row[0]*t.mInv)
			lo, cc1 := bits.Add(uint(w[i+k]), uint(c1), 0)
			lo, cc2 := bits.Add(lo, uint(c2), 0)
			w[i+k], w[i+k+1] = big.Word(lo), big.Word(cc1+cc2)
		}
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
// little-endian integer: bit p of x is bit p%8 of exp[p/8]. exp may be
// shorter than the table's expBytes; a longer one panics. z must not alias s
// or the table.
func (t *Table) Exp(z *big.Int, s *Scratch, exp []byte) {
	t.MulExp(z, s, bigOne, exp)
}

var bigOne = big.NewInt(1)

// MulExp sets z to y·g^x mod m for y in [0, m), with x read from exp as Exp
// reads it. Column offset j = b−1 … 0 squares the running product, once it
// has started, and then takes each group's index u, the row bits of column
// s·b+j: the first nonzero index copies its entry and each later one is a
// Montgomery step. The last step, by y itself, returns the product to plain
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
	n := len(exp) * 8
	for j := t.b - 1; j >= 0; j-- {
		if started {
			t.step(acc, acc, acc, w)
		}
		for c, g := j, 0; c < t.a; c, g = c+t.b, g+1 { // column c of group g
			u := 0
			for p, bit := c, 0; p < n; p, bit = p+t.a, bit+1 {
				u |= int(exp[p>>3]>>(p&7)&1) << bit
			}
			switch {
			case u == 0:
			case started:
				t.step(acc, acc, t.entry(g, u), w)
			default:
				copy(acc, t.entry(g, u))
				started = true
			}
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
