package mpc

import (
	"math/bits"

	"arboretum/internal/bgv"
)

// The MPC field. Following the paper (Section 6: "the encryption, decryption,
// and key generation MPCs set the prime modulus to BGV's ciphertext
// modulus"), we compute over internal/bgv's 60-bit prime 2^60 − 2^14 + 1.
const fieldPrime = bgv.Q

func fadd(a, b uint64) uint64 {
	s := a + b
	if s >= fieldPrime {
		s -= fieldPrime
	}
	return s
}

func fsub(a, b uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + fieldPrime - b
}

func fmul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, fieldPrime)
	return rem
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

func fneg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return fieldPrime - a
}

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
