// Package fixed implements the Q30.16 fixed-point arithmetic that Arboretum
// uses inside MPC programs and noise samplers.
//
// The paper (Section 6) sets the fixpoint length to 30 bits for the integer
// part and 16 bits for the decimal part, and uses base-2 exponentials for the
// exponential mechanism as suggested by Ilvento, which avoids the
// floating-point irregularities described by Mironov. We mirror that layout:
// a Fixed value is a signed 64-bit integer scaled by 2^16.
package fixed

import (
	"fmt"
	"math"
)

// FracBits is the number of fractional bits (the paper's "16 bits of
// precision for the decimal part").
const FracBits = 16

// IntBits is the number of integer bits (the paper's "30 bits for the
// integer part").
const IntBits = 30

// One is the fixed-point representation of 1.
const One Fixed = 1 << FracBits

// Max and Min bound the representable range: ±(2^30 − 2^−16).
const (
	Max Fixed = (1 << (IntBits + FracBits)) - 1
	Min Fixed = -Max
)

// Fixed is a Q30.16 fixed-point number stored in a signed 64-bit integer.
type Fixed int64

// FromInt converts an integer to fixed point. Values outside the
// representable range saturate.
func FromInt(v int64) Fixed {
	return saturate(v << FracBits)
}

// FromFloat converts a float64 to fixed point, rounding to nearest. Values
// outside the representable range saturate; NaN maps to zero.
func FromFloat(v float64) Fixed {
	if math.IsNaN(v) {
		return 0
	}
	scaled := v * float64(One)
	if scaled >= float64(Max) {
		return Max
	}
	if scaled <= float64(Min) {
		return Min
	}
	return Fixed(math.Round(scaled))
}

// FromRatio returns num/den in fixed point. It panics if den is zero.
func FromRatio(num, den int64) Fixed {
	if den == 0 {
		panic("fixed: division by zero in FromRatio")
	}
	return saturate((num << FracBits) / den)
}

// Float converts back to float64.
func (f Fixed) Float() float64 { return float64(f) / float64(One) }

// Int truncates toward zero.
func (f Fixed) Int() int64 { return int64(f) / int64(One) }

// Add returns f+g with saturation.
func (f Fixed) Add(g Fixed) Fixed { return saturate(int64(f) + int64(g)) }

// Sub returns f−g with saturation.
func (f Fixed) Sub(g Fixed) Fixed { return saturate(int64(f) - int64(g)) }

// Neg returns −f.
func (f Fixed) Neg() Fixed { return -f }

// Abs returns |f|.
func (f Fixed) Abs() Fixed {
	if f < 0 {
		return -f
	}
	return f
}

// Mul returns f·g with saturation. The product is computed in 128 bits so
// intermediate overflow cannot occur.
func (f Fixed) Mul(g Fixed) Fixed {
	hi, lo := mul64(int64(f), int64(g))
	// Shift the 128-bit product right by FracBits.
	res := int64(uint64(lo)>>FracBits) | hi<<(64-FracBits)
	// Detect overflow: the discarded high bits must be a sign extension.
	wantHi := res >> 63 << (FracBits - 1) >> (63 - FracBits) // all 0s or all 1s
	if hi>>(FracBits-1) != wantHi>>(FracBits-1) {
		if (int64(f) < 0) != (int64(g) < 0) {
			return Min
		}
		return Max
	}
	return saturate(res)
}

// Div returns f/g with saturation. It panics if g is zero.
func (f Fixed) Div(g Fixed) Fixed {
	if g == 0 {
		panic("fixed: division by zero")
	}
	// (f << FracBits) / g, computed in 128 bits.
	hi := int64(f) >> (64 - FracBits)
	lo := int64(f) << FracBits
	q := div128(hi, lo, int64(g))
	return saturate(q)
}

// String formats the value with full fractional precision.
func (f Fixed) String() string {
	return fmt.Sprintf("%.6g", f.Float())
}

func saturate(v int64) Fixed {
	if v > int64(Max) {
		return Max
	}
	if v < int64(Min) {
		return Min
	}
	return Fixed(v)
}

// mul64 returns the 128-bit product of two signed 64-bit integers.
func mul64(a, b int64) (hi, lo int64) {
	const mask = 1<<32 - 1
	alo, ahi := uint64(a)&mask, uint64(a)>>32
	blo, bhi := uint64(b)&mask, uint64(b)>>32
	t := alo*bhi + (alo*blo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += ahi * blo
	uhi := ahi*bhi + w2 + w1>>32
	ulo := uint64(a) * uint64(b)
	shi := int64(uhi)
	// Convert unsigned 128-bit product to signed.
	if a < 0 {
		shi -= b
	}
	if b < 0 {
		shi -= a
	}
	return shi, int64(ulo)
}

// div128 divides the signed 128-bit value (hi, lo) by d, returning a 64-bit
// quotient (saturating on overflow).
func div128(hi, lo, d int64) int64 {
	neg := false
	if hi < 0 {
		// Negate the 128-bit numerator.
		lo = -lo
		hi = ^hi
		if lo == 0 {
			hi++
		}
		neg = !neg
	}
	if d < 0 {
		d = -d
		neg = !neg
	}
	uhi, ulo, ud := uint64(hi), uint64(lo), uint64(d)
	if uhi >= ud {
		// Quotient does not fit in 64 bits: saturate.
		if neg {
			return int64(Min)
		}
		return int64(Max)
	}
	q := divu128(uhi, ulo, ud)
	if q > uint64(Max) {
		if neg {
			return int64(Min)
		}
		return int64(Max)
	}
	if neg {
		return -int64(q)
	}
	return int64(q)
}

// divu128 divides the unsigned 128-bit value (hi, lo) by d, hi < d.
// Simple shift-subtract long division; Fixed.Div is not on a hot path.
func divu128(hi, lo, d uint64) uint64 {
	var q uint64
	for i := 0; i < 64; i++ {
		carry := hi >> 63
		hi = hi<<1 | lo>>63
		lo <<= 1
		q <<= 1
		if carry != 0 || hi >= d {
			hi -= d
			q |= 1
		}
	}
	return q
}
