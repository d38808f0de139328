package bgv

import "math/bits"

// Modular arithmetic over one word-sized NTT-friendly prime q < 2^62 (one
// lane of the RNS basis). All values are kept reduced in [0, q).

func addMod(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

func subMod(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}

// mulMod returns a·b mod q using a 128-bit intermediate product. Both inputs
// must be < q, so the high word of the product is < q and
// bits.Div64's precondition holds.
func mulMod(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, q)
	return rem
}

// shoupPrecomp returns ⌊w·2^64/q⌋, the Shoup companion word for the constant
// w < q. Precomputing it once per twiddle factor lets every butterfly
// multiply run division-free: see mulModShoup.
func shoupPrecomp(w, q uint64) uint64 {
	quo, _ := bits.Div64(w, 0, q) // w·2^64 / q; w < q keeps Div64 in range
	return quo
}

// mulModShoupLazy returns a·w mod q lazily reduced to [0, 2q), using one
// high-word multiply, one low multiply, and no division. w must be < q with
// wShoup = shoupPrecomp(w, q); a may be any 64-bit value (in particular a
// lazily-reduced butterfly value), because the quotient estimate
// q̂ = ⌊a·wShoup/2^64⌋ satisfies ⌊a·w/q⌋ − 1 ≤ q̂ ≤ ⌊a·w/q⌋, so the
// remainder a·w − q̂·q lies in [0, 2q) and is exact in the wrapping low word.
func mulModShoupLazy(a, w, wShoup, q uint64) uint64 {
	hi, _ := bits.Mul64(a, wShoup)
	return a*w - hi*q
}

// mulModShoup returns a·w mod q fully reduced, division-free, for a
// precomputed constant w (one conditional subtract on top of the lazy form).
func mulModShoup(a, w, wShoup, q uint64) uint64 {
	r := mulModShoupLazy(a, w, wShoup, q)
	if r >= q {
		r -= q
	}
	return r
}

// powMod returns a^e mod q by square-and-multiply.
func powMod(a, e, q uint64) uint64 {
	result := uint64(1 % q)
	base := a % q
	for e > 0 {
		if e&1 == 1 {
			result = mulMod(result, base, q)
		}
		base = mulMod(base, base, q)
		e >>= 1
	}
	return result
}

// invMod returns a^-1 mod q for prime q (Fermat).
func invMod(a, q uint64) uint64 {
	return powMod(a, q-2, q)
}

// negMod returns -a mod q.
func negMod(a, q uint64) uint64 {
	if a == 0 {
		return 0
	}
	return q - a
}
