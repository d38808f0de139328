package mpc

import (
	"math/big"
	"testing"
)

var bigP = new(big.Int).SetUint64(fieldPrime)

// splitMix is SplitMix64: a seeded, reproducible stream of test words (the
// package draws its own randomness only from crypto/rand).
type splitMix uint64

func (s *splitMix) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// bigMod returns v mod p as a word.
func bigMod(v *big.Int) uint64 { return new(big.Int).Mod(v, bigP).Uint64() }

func bigU(v uint64) *big.Int { return new(big.Int).SetUint64(v) }

// bigDot is Σ x[i]·y[i] mod p in math/big.
func bigDot(x, y []uint64) uint64 {
	acc := new(big.Int)
	for i := range x {
		acc.Add(acc, new(big.Int).Mul(bigU(x[i]), bigU(y[i])))
	}
	return bigMod(acc)
}

// bigWeighBits is Σ 2^i·x[i·stride] mod p in math/big.
func bigWeighBits(x []uint64, stride, n int) uint64 {
	acc := new(big.Int)
	for i := 0; i < n; i++ {
		acc.Add(acc, new(big.Int).Lsh(bigU(x[i*stride]), uint(i)))
	}
	return bigMod(acc)
}

// checkFieldOps holds fadd, fsub, fmul and mulAdd2 to math/big on field
// elements a, b, c, d and any word e.
func checkFieldOps(t *testing.T, a, b, c, d, e uint64) {
	t.Helper()
	A, B, C, D, E := bigU(a), bigU(b), bigU(c), bigU(d), bigU(e)
	if got, want := fadd(a, b), bigMod(new(big.Int).Add(A, B)); got != want {
		t.Errorf("fadd(%d, %d) = %d, want %d", a, b, got, want)
	}
	if got, want := fsub(a, b), bigMod(new(big.Int).Sub(A, B)); got != want {
		t.Errorf("fsub(%d, %d) = %d, want %d", a, b, got, want)
	}
	if got, want := fmul(a, b), bigMod(new(big.Int).Mul(A, B)); got != want {
		t.Errorf("fmul(%d, %d) = %d, want %d", a, b, got, want)
	}
	sum := new(big.Int).Add(new(big.Int).Mul(A, B), new(big.Int).Mul(C, D))
	if got, want := mulAdd2(a, b, c, d, e), bigMod(sum.Add(sum, E)); got != want {
		t.Errorf("mulAdd2(%d, %d, %d, %d, %d) = %d, want %d", a, b, c, d, e, got, want)
	}
}

// checkLazySums holds dot and weighBits to math/big on x and y.
func checkLazySums(t *testing.T, x, y []uint64) {
	t.Helper()
	if got, want := dot(x, y), bigDot(x, y); got != want {
		t.Errorf("dot over %d terms = %d, want %d", len(x), got, want)
	}
	if n := min(len(x), ValueBits-1); n > 0 {
		if got, want := weighBits(x, 1, n), bigWeighBits(x, 1, n); got != want {
			t.Errorf("weighBits over %d terms = %d, want %d", n, got, want)
		}
	}
}

// TestFieldOps checks the field arithmetic against math/big at the edges
// of the field and at random elements.
func TestFieldOps(t *testing.T) {
	edges := []uint64{0, 1, 2, fieldPrime / 2, fieldPrime/2 + 1, fieldPrime - 2, fieldPrime - 1}
	for _, a := range edges {
		for _, b := range edges {
			checkFieldOps(t, a, b, a, b, ^uint64(0))
			checkFieldOps(t, a, b, b, a, 0)
		}
	}
	rng := splitMix(1)
	for i := 0; i < 1000; i++ {
		f := func() uint64 { return rng.Uint64() % fieldPrime }
		checkFieldOps(t, f(), f(), f(), f(), rng.Uint64())
	}
}

// TestLazySumsBound checks dot and weighBits against math/big at every
// length from 1 to 41 (the paper's committee of 41 has threshold 21, and
// Mod2m weighs up to ValueBits−1 bits) with every input p−1, every input 0,
// and random inputs. All p−1 is the sum a lazy reduction must bound: at 21
// terms without folding, its high word is above p and bits.Div64 panics.
func TestLazySumsBound(t *testing.T) {
	rng := splitMix(2)
	for n := 1; n <= 41; n++ {
		top, zero, x, y := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for i := range top {
			top[i] = fieldPrime - 1
			x[i], y[i] = rng.Uint64()%fieldPrime, rng.Uint64()%fieldPrime
		}
		checkLazySums(t, top, top)
		checkLazySums(t, zero, top)
		checkLazySums(t, top, zero)
		checkLazySums(t, x, y)
		checkLazySums(t, top, y)
	}
	// weighBits reads strided, as Mod2m does over a comparison's bits.
	const m, stride = ValueBits - 1, 5
	x := make([]uint64, m*stride)
	for i := range x {
		x[i] = fieldPrime - 1
	}
	for p := 0; p < stride; p++ {
		if got, want := weighBits(x[p:], stride, m), bigWeighBits(x[p:], stride, m); got != want {
			t.Errorf("strided weighBits at %d = %d, want %d", p, got, want)
		}
	}
}

// FuzzFieldOps holds fadd, fsub, fmul, mulAdd2, dot and weighBits to
// math/big on fuzzed field elements. The vectors for the lazy sums are n+1
// terms long (n < 42), drawn from seed, with p−1 forced into every term
// whose bit in seed is set.
func FuzzFieldOps(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), int64(0))
	f.Add(fieldPrime-1, fieldPrime-1, fieldPrime-1, fieldPrime-1, ^uint64(0), uint8(40), int64(-1))
	f.Add(uint64(1), fieldPrime-1, uint64(2), fieldPrime/2, uint64(1)<<63, uint8(20), int64(12345))
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint64, n uint8, seed int64) {
		a, b, c, d = a%fieldPrime, b%fieldPrime, c%fieldPrime, d%fieldPrime
		checkFieldOps(t, a, b, c, d, e)
		rng := splitMix(seed)
		k := int(n)%42 + 1
		x, y := make([]uint64, k), make([]uint64, k)
		for i := range x {
			x[i], y[i] = rng.Uint64()%fieldPrime, rng.Uint64()%fieldPrime
			if seed>>(uint(i)%64)&1 == 1 {
				x[i], y[i] = fieldPrime-1, fieldPrime-1
			}
		}
		checkLazySums(t, x, y)
	})
}
