package fixedbase

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"runtime"
	"slices"
	"strings"
	"testing"

	"arboretum/internal/benchrand"
)

// size is one table shape under test: an exponent length, a modulus width
// and the walk count New sizes the table for.
type size struct {
	name            string
	modBits, expLen int
	walks           int
}

// sizes are the two sizes the callers use: ahe's 512-bit randomizer
// exponents over a 1024-bit n², and vsr's 65-byte commitment exponents (its
// 513-bit Q) over a 1536-bit P, each at the walk count of a table that lives
// for the process, so in the 9 × 8 shape.
var sizes = []size{
	{"ahe", 1024, 64, math.MaxInt},
	{"vsr", 1536, 65, math.MaxInt},
}

// aheShapes returns, for every shape shapeFor can pick at ahe's 64-byte
// exponents, the least walk count that picks it, in rising order. The
// chosen shape's walk bound falls as the count rises, and once it is the
// least of all it stays chosen, so counts up to 2^12 reach every shape.
func aheShapes() []int {
	var walks []int
	var last shape
	for w := 1; w <= 1<<12; w++ {
		if sh := shapeFor(64, w); sh != last {
			walks, last = append(walks, w), sh
		}
	}
	return walks
}

// shapeSizes is sizes, then ahe's size at every other shape the chooser can
// pick for it, named ahe-<h>x<v>.
func shapeSizes() []size {
	all := append([]size(nil), sizes...)
	for _, w := range aheShapes() {
		if sh := shapeFor(64, w); sh != shapeFor(64, math.MaxInt) {
			all = append(all, size{fmt.Sprintf("ahe-%dx%d", sh.h, sh.v), 1024, 64, w})
		}
	}
	return all
}

// littleEndian reads exp as the little-endian integer the comb walks.
func littleEndian(exp []byte) *big.Int {
	be := make([]byte, len(exp))
	for i, b := range exp {
		be[len(exp)-1-i] = b
	}
	return new(big.Int).SetBytes(be)
}

// randomBytes returns n bytes from rng.
func randomBytes(tb testing.TB, rng *benchrand.Reader, n int) []byte {
	tb.Helper()
	b := make([]byte, n)
	if _, err := rng.Read(b); err != nil {
		tb.Fatal(err)
	}
	return b
}

// oddModulus returns a random odd modulus of exactly modBits bits.
func oddModulus(tb testing.TB, rng *benchrand.Reader, modBits int) *big.Int {
	tb.Helper()
	mb := randomBytes(tb, rng, modBits/8)
	mb[0] |= 0x80
	mb[len(mb)-1] |= 1
	return new(big.Int).SetBytes(mb)
}

// withTopWord returns m with its most significant word replaced by top.
func withTopWord(m *big.Int, top big.Word) *big.Int {
	w := append([]big.Word(nil), m.Bits()...)
	w[len(w)-1] = top
	return new(big.Int).SetBits(w)
}

// withLowWord returns m with its least significant word replaced by low,
// which must be odd.
func withLowWord(m *big.Int, low big.Word) *big.Int {
	w := append([]big.Word(nil), m.Bits()...)
	w[0] = low
	return new(big.Int).SetBits(w)
}

// TestExpMatchesExp holds the comb walk to big.Int.Exp at vsr's size and at
// ahe's in every shape the chooser can pick, each over a random modulus, over the two top-word edges — a
// top word of 1 and a top word of all ones — and over the two ends of
// m′ = −m⁻¹ mod 2^W — a low word of 1, so m′ is all ones, and a low word of
// all ones, so m′ is 1 — on all-zero, all-0xff (every index all ones),
// short, row- and group-boundary and random exponents, with the scratch
// reused throughout.
func TestExpMatchesExp(t *testing.T) {
	rng := benchrand.New(7)
	for _, size := range shapeSizes() {
		t.Run(size.name, func(t *testing.T) {
			random := oddModulus(t, rng, size.modBits)
			mods := []*big.Int{
				random,
				withTopWord(random, 1), withTopWord(random, ^big.Word(0)),
				withLowWord(random, 1), withLowWord(random, ^big.Word(0)),
			}
			exps := [][]byte{
				make([]byte, size.expLen),
				bytes.Repeat([]byte{0xff}, size.expLen),
				bytes.Repeat([]byte{0xff}, size.expLen-1),
				{0x01},
				{0xf0, 0x0f},
			}
			// The comb's seams: a run of ones ending on and a single bit
			// starting at every row boundary i·a and every group boundary
			// s·b within row 1, and an exponent shorter than a row.
			lay := New(big.NewInt(4), random, size.expLen, size.walks)
			setBits := func(e []byte, from, to int) []byte {
				for p := max(from, 0); p < min(to, 8*len(e)); p++ {
					e[p/8] |= 1 << (p % 8)
				}
				return e
			}
			for i := 1; i < lay.h; i++ {
				at := i * lay.a
				exps = append(exps,
					setBits(make([]byte, size.expLen), at-lay.b, at),
					setBits(make([]byte, size.expLen), at, at+1))
			}
			for g := 1; g < lay.v; g++ {
				at := lay.a + g*lay.b
				exps = append(exps,
					setBits(make([]byte, size.expLen), at-3, at+3),
					setBits(make([]byte, size.expLen), at, at+1))
			}
			exps = append(exps, setBits(make([]byte, (lay.a-1)/8), 0, lay.a-1))
			for _, n := range []int{1, 2, 3, 5, size.expLen - 1} {
				exps = append(exps, randomBytes(t, rng, n))
			}
			for i := 0; i < 20; i++ {
				exps = append(exps, randomBytes(t, rng, size.expLen))
			}
			var z big.Int
			var s Scratch
			for _, m := range mods {
				g := big.NewInt(4)
				tab := New(g, m, size.expLen, size.walks)
				for _, e := range exps {
					x := littleEndian(e)
					tab.Exp(&z, &s, e)
					if want := new(big.Int).Exp(g, x, m); z.Cmp(want) != 0 {
						t.Fatalf("m = %x, x = %x: comb %v, Exp %v", m, x, &z, want)
					}
				}
			}
		})
	}
}

// TestExpSingleBits walks 2^p for every bit position p of the exponent, at
// vsr's size, at ahe's in every shape and on a one-word modulus. Each p is one (row, column)
// slot, so between them the walks read every single-row entry and every
// column offset, the last group's short run of columns included.
func TestExpSingleBits(t *testing.T) {
	rng := benchrand.New(35)
	mods := []struct {
		m             *big.Int
		expLen, walks int
	}{{big.NewInt(1000003), 8, math.MaxInt}}
	for _, size := range shapeSizes() {
		mods = append(mods, struct {
			m             *big.Int
			expLen, walks int
		}{oddModulus(t, rng, size.modBits), size.expLen, size.walks})
	}
	var z big.Int
	var s Scratch
	g := big.NewInt(5)
	for _, mod := range mods {
		tab := New(g, mod.m, mod.expLen, mod.walks)
		want := new(big.Int).Mod(g, mod.m) // g^(2^p), one squaring a position
		for p := 0; p < 8*mod.expLen; p++ {
			e := make([]byte, mod.expLen)
			e[p/8] = 1 << (p % 8)
			tab.Exp(&z, &s, e)
			if z.Cmp(want) != 0 {
				t.Fatalf("m = %x, x = 2^%d: comb %v, g^(2^p) %v", mod.m, p, &z, want)
			}
			want.Mul(want, want).Mod(want, mod.m)
		}
	}
}

// TestLayout pins the comb's layout at both callers' process-lifetime sizes
// and at ahe's gateway key: 9 × 8 has 8·511 = 4,088 entries and 8 × 5 has
// 5·255 = 1,275; no group is empty, and a walk takes at most b−1 squarings,
// a−1 multiplications after the first column's copy and the final step by
// y — 64 steps for ahe's 512-bit exponents and 65 for vsr's 520-bit ones at
// 9 × 8, and 76 at 8 × 5. Short exponents at an unbounded count take the
// rows that leave the walk fewest steps at the least build.
func TestLayout(t *testing.T) {
	rng := benchrand.New(36)
	for _, size := range []struct {
		name             string
		modBits, expLen  int
		walks            int
		h, a, b, v, most int
	}{
		{"ahe", 1024, 64, math.MaxInt, 9, 57, 8, 8, 64},
		{"vsr", 1536, 65, math.MaxInt, 9, 58, 8, 8, 65},
		{"ahe-104", 1024, 64, 104, 8, 64, 13, 5, 76},
		{"one-byte", 64, 1, math.MaxInt, 8, 1, 1, 1, 1},
		{"three-byte", 64, 3, math.MaxInt, 8, 3, 1, 3, 3},
	} {
		tab := New(big.NewInt(4), oddModulus(t, rng, size.modBits), size.expLen, size.walks)
		if tab.h != size.h || tab.a != size.a || tab.b != size.b || tab.v != size.v {
			t.Errorf("%s: h, a, b, v = %d, %d, %d, %d, want %d, %d, %d, %d", size.name, tab.h, tab.a, tab.b, tab.v, size.h, size.a, size.b, size.v)
		}
		if n, want := len(tab.entries)/tab.k, size.v*(1<<size.h-1); n != want {
			t.Errorf("%s: %d entries, want %d", size.name, n, want)
		}
		if (tab.v-1)*tab.b >= tab.a {
			t.Errorf("%s: group %d is empty", size.name, tab.v-1)
		}
		if most := (tab.b - 1) + (tab.a - 1) + 1; most != size.most {
			t.Errorf("%s: at most %d steps a walk, want %d", size.name, most, size.most)
		}
	}
}

// TestShapeFor pins the chooser at both callers' exponent lengths: the
// shape that minimizes build + walks × walk at the walk counts around its
// crossovers, 104 (a gateway key's 96 uploads and 8 re-encryptions) among
// them, and 9 × 8 for a table that lives for the process. Over every count
// no shape has more than today's 8·511 entries or an empty group.
func TestShapeFor(t *testing.T) {
	for _, c := range []struct {
		expLen, walks int
		want          shape
	}{
		{64, 1, shape{h: 5, a: 103, b: 103, v: 1}},
		{64, 43, shape{h: 8, a: 64, b: 16, v: 4}},
		{64, 84, shape{h: 8, a: 64, b: 13, v: 5}},
		{64, 104, shape{h: 8, a: 64, b: 13, v: 5}},
		{64, 126, shape{h: 8, a: 64, b: 11, v: 6}},
		{64, 506, shape{h: 9, a: 57, b: 8, v: 8}},
		{64, math.MaxInt, shape{h: 9, a: 57, b: 8, v: 8}},
		{65, 1, shape{h: 5, a: 104, b: 104, v: 1}},
		{65, 43, shape{h: 7, a: 75, b: 15, v: 5}},
		{65, 84, shape{h: 8, a: 65, b: 13, v: 5}},
		{65, 104, shape{h: 8, a: 65, b: 13, v: 5}},
		{65, 126, shape{h: 8, a: 65, b: 11, v: 6}},
		{65, 506, shape{h: 9, a: 58, b: 8, v: 8}},
		{65, math.MaxInt, shape{h: 9, a: 58, b: 8, v: 8}},
	} {
		if got := shapeFor(c.expLen, c.walks); got != c.want {
			t.Errorf("%d-byte exponents, %d walks: %+v, want %+v", c.expLen, c.walks, got, c.want)
		}
	}
	for _, expLen := range []int{64, 65} {
		counts := []int{math.MaxInt}
		for w := 0; w <= 1<<12; w++ {
			counts = append(counts, w)
		}
		for _, walks := range counts {
			sh := shapeFor(expLen, walks)
			if n := sh.v * (1<<sh.h - 1); n > maxGroups*(1<<maxRows-1) {
				t.Errorf("%d-byte exponents, %d walks: %+v has %d entries", expLen, walks, sh, n)
			}
			if sh.h*sh.a < 8*expLen || (sh.v-1)*sh.b >= sh.a || sh.v*sh.b < sh.a {
				t.Errorf("%d-byte exponents, %d walks: %+v does not tile the exponent", expLen, walks, sh)
			}
		}
	}
}

// TestNewSameAtEveryWorkerCount builds vsr's table and ahe's in every shape
// on one worker and on four and requires the same slab: every entry is one
// residue, whichever task filled its group.
func TestNewSameAtEveryWorkerCount(t *testing.T) {
	rng := benchrand.New(37)
	for _, size := range shapeSizes() {
		m := oddModulus(t, rng, size.modBits)
		g := big.NewInt(4)
		prev := runtime.GOMAXPROCS(1)
		one := New(g, m, size.expLen, size.walks)
		runtime.GOMAXPROCS(4)
		four := New(g, m, size.expLen, size.walks)
		runtime.GOMAXPROCS(prev)
		if !slices.Equal(one.entries, four.entries) {
			t.Errorf("%s: the table built on 4 workers differs from the one built on 1", size.name)
		}
	}
}

// TestExpLengthContract checks Exp's one length rule: an exponent of up to
// the table's expBytes walks, and a longer one panics whatever its tail
// holds.
func TestExpLengthContract(t *testing.T) {
	const expBytes = 8
	m := big.NewInt(1000003)
	g := big.NewInt(5)
	tab := New(g, m, expBytes, math.MaxInt)
	var z big.Int
	var s Scratch
	for _, n := range []int{0, 1, expBytes - 1, expBytes} {
		e := bytes.Repeat([]byte{0xa5}, n)
		tab.Exp(&z, &s, e)
		if want := new(big.Int).Exp(g, littleEndian(e), m); z.Cmp(want) != 0 {
			t.Fatalf("%d-byte exponent: comb %v, Exp %v", n, &z, want)
		}
	}
	for _, e := range [][]byte{
		make([]byte, expBytes+1), // zero tail
		make([]byte, expBytes+2),
		append(make([]byte, expBytes), 1),
	} {
		func() {
			defer func() {
				if r, ok := recover().(string); !ok || !strings.Contains(r, "exceeds") {
					t.Errorf("%d-byte exponent: recovered %v, want the length panic", len(e), r)
				}
			}()
			tab.Exp(&z, &s, e)
		}()
	}
}

// TestMulExpMatchesMod holds the walk with a plain factor, y·g^x mod m, to
// Mul, Exp and Mod: y at the edges of [0, m) and random, on all-zero,
// all-0xff and random exponents, at vsr's size, at ahe's in every shape and
// on a one-word modulus, with the scratch reused and z aliasing y on every
// other call.
func TestMulExpMatchesMod(t *testing.T) {
	rng := benchrand.New(30)
	mods := []struct {
		m             *big.Int
		expLen, walks int
	}{{big.NewInt(1000003), 8, math.MaxInt}}
	for _, size := range shapeSizes() {
		mods = append(mods, struct {
			m             *big.Int
			expLen, walks int
		}{oddModulus(t, rng, size.modBits), size.expLen, size.walks})
	}
	var z big.Int
	var s Scratch
	for _, mod := range mods {
		m := mod.m
		g := big.NewInt(3)
		tab := New(g, m, mod.expLen, mod.walks)
		ys := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(m, big.NewInt(1)), new(big.Int).Rsh(m, 1)}
		for i := 0; i < 4; i++ {
			y := new(big.Int).SetBytes(randomBytes(t, rng, len(m.Bytes())+1))
			ys = append(ys, y.Mod(y, m))
		}
		exps := [][]byte{make([]byte, mod.expLen), bytes.Repeat([]byte{0xff}, mod.expLen)}
		for i := 0; i < 4; i++ {
			exps = append(exps, randomBytes(t, rng, mod.expLen))
		}
		for i, y := range ys {
			for _, e := range exps {
				want := new(big.Int).Exp(g, littleEndian(e), m)
				want.Mul(want, y).Mod(want, m)
				got, factor := &z, y
				if i%2 == 1 {
					got = new(big.Int).Set(y)
					factor = got
				}
				tab.MulExp(got, &s, factor, e)
				if got.Cmp(want) != 0 {
					t.Fatalf("m = %x, y = %x, x = %x: MulExp %v, Mul+Exp+Mod %v", m, y, littleEndian(e), got, want)
				}
			}
		}
	}
}

// TestNewPanicsOnEvenModulus checks New's one precondition on m: the
// Montgomery step needs m odd, and both callers' moduli are.
func TestNewPanicsOnEvenModulus(t *testing.T) {
	for _, m := range []*big.Int{big.NewInt(1000004), new(big.Int).Lsh(big.NewInt(1), 1024)} {
		func() {
			defer func() {
				if r, ok := recover().(string); !ok || !strings.Contains(r, "odd") {
					t.Errorf("m = %v: recovered %v, want the odd-modulus panic", m, r)
				}
			}()
			New(big.NewInt(3), m, 8, 1)
		}()
	}
}

// BenchmarkExp times one walk at each caller's size on random exponents,
// and at ahe's in a gateway key's 8 × 5 shape (104 walks): the kernel rows
// of docs/KERNELS.md's "Fixed-base combs".
func BenchmarkExp(b *testing.B) {
	for _, size := range append(sizes, size{"ahe-8x5", 1024, 64, 104}) {
		b.Run(size.name, func(b *testing.B) {
			rng := benchrand.New(uint64(size.modBits))
			tab := New(big.NewInt(4), oddModulus(b, rng, size.modBits), size.expLen, size.walks)
			exps := make([][]byte, 64)
			for i := range exps {
				exps[i] = randomBytes(b, rng, size.expLen)
			}
			var z big.Int
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Exp(&z, &s, exps[i%len(exps)])
			}
		})
	}
}

// BenchmarkNew times one table build at vsr's size, what it pays once per
// group, and at ahe's in every shape the chooser picks, what GenerateKeyFor
// pays per key sized to that many encryptions.
func BenchmarkNew(b *testing.B) {
	for _, size := range shapeSizes() {
		b.Run(size.name, func(b *testing.B) {
			m := oddModulus(b, benchrand.New(uint64(size.modBits)), size.modBits)
			g := big.NewInt(4)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(g, m, size.expLen, size.walks)
			}
		})
	}
}
