package mpc

import (
	"math/bits"

	"arboretum/internal/bgv"
)

// The MPC field. Following the paper (Section 6: "the encryption, decryption,
// and key generation MPCs set the prime modulus to BGV's ciphertext
// modulus"), we compute over internal/bgv's 60-bit prime 2^60 − 2^14 + 1.
const fieldPrime = bgv.Q

// fadd and fsub take field elements (below p < 2^60) and are branch-free:
// a + b − p and a − b lie in (−2^60, 2^60), so their sign bit says whether
// p must be added back. On random field elements a compare-and-subtract
// mispredicts about half the time.
func fadd(a, b uint64) uint64 {
	s := a + b - fieldPrime
	return s + fieldPrime&uint64(int64(s)>>63)
}

func fsub(a, b uint64) uint64 {
	s := a - b
	return s + fieldPrime&uint64(int64(s)>>63)
}

func fmul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, fieldPrime)
	return rem
}

// dotFold is how many products dot sums in 128 bits between reductions.
// Each product of field elements is at most (p−1)² < 2^120, and the
// carried-in remainder is below p < 2^60, so 15 products and the remainder
// sum to less than 15·2^120 + 2^61, whose high word is at most 15·2^56 =
// 2^60 − 2^56 < p, as bits.Div64 requires. Without the folds a sum of 21
// products of p−1 (a 41-party committee's threshold) has a high word near
// 2^60.4 > p, and Div64 panics.
const dotFold = 15

// dot returns Σ x[i]·y[i] mod p over field elements, len(y) ≥ len(x),
// reducing once per dotFold products.
func dot(x, y []uint64) uint64 {
	var hi, lo uint64
	for len(x) > 0 {
		n := min(len(x), dotFold)
		for i, xi := range x[:n] {
			ph, pl := bits.Mul64(xi, y[i])
			var c uint64
			lo, c = bits.Add64(lo, pl, 0)
			hi += ph + c
		}
		_, lo = bits.Div64(hi, lo, fieldPrime)
		hi, x, y = 0, x[n:], y[n:]
	}
	return lo
}

// mulAdd2 returns (a·b + c·d + e) mod p for field elements a, b, c, d and
// any e: the high word of the sum is below 2·2^56 + 1 < p.
func mulAdd2(a, b, c, d, e uint64) uint64 {
	h1, l1 := bits.Mul64(a, b)
	h2, l2 := bits.Mul64(c, d)
	lo, k1 := bits.Add64(l1, l2, 0)
	lo, k2 := bits.Add64(lo, e, 0)
	_, r := bits.Div64(h1+h2+k1+k2, lo, fieldPrime)
	return r
}

// weighBits returns Σ_i 2^i·x[i·stride] mod p over n < ValueBits field
// elements: each term is below 2^(60+i), so the sum is below 2^(60+n) ≤
// 2^107 and its high word below 2^43 < p.
func weighBits(x []uint64, stride, n int) uint64 {
	var hi, lo uint64
	for i := 0; i < n; i++ {
		v := x[i*stride]
		var c uint64
		lo, c = bits.Add64(lo, v<<uint(i), 0)
		hi += v>>(64-uint(i)) + c
	}
	_, r := bits.Div64(hi, lo, fieldPrime)
	return r
}

func fpow(a, e uint64) uint64 {
	result := uint64(1)
	base := a % fieldPrime
	for e > 0 {
		if e&1 == 1 {
			result = fmul(result, base)
		}
		base = fmul(base, base)
		e >>= 1
	}
	return result
}

func finv(a uint64) uint64 { return fpow(a, fieldPrime-2) }

// toField maps a signed integer into the field (negative values wrap).
func toField(v int64) uint64 {
	if v >= 0 {
		return uint64(v) % fieldPrime
	}
	return fieldPrime - (uint64(-v) % fieldPrime)
}

// fromField maps a field element back to a centered signed integer.
func fromField(v uint64) int64 {
	if v > fieldPrime/2 {
		return -int64(fieldPrime - v)
	}
	return int64(v)
}
