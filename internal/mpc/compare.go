package mpc

import (
	"errors"
	"fmt"

	"arboretum/internal/fixed"
)

// Comparison protocols in the Catrina–de Hoogh style: the value is shifted
// non-negative, masked with dealer-provided random bits plus a statistical
// mask, opened, and the masked low bits are compared against the shared
// random bits with a borrow-scan of Beaver multiplications. The paper notes
// that "the first comparison is more expensive than subsequent comparisons
// because it requires the generation of multiplication triples"
// (Section 6) — here that shows up as DealerBytes preprocessing.

// bitLTPublic computes the shared bit [c < r] where c is public and r is
// given by its shared bits rBits (LSB first, M words each). Uses the
// most-significant differing bit: [c < r] = Σ_i r_i(1−c_i) · Π_{j>i} (1 − f_j)
// with f_j = r_j ⊕ c_j. The prefix products take len−1 sequential
// multiplications.
func (e *Engine) bitLTPublic(c uint64, rBits []uint64) Secret {
	m := e.M
	n := len(rBits) / m
	r := func(i int) []uint64 { return rBits[i*m : (i+1)*m] }
	// f_j = r_j ⊕ c_j is affine in the shared bit: c_j=0 → r_j; c_j=1 → 1−r_j.
	// It enters the products only as 1 − f_j, so both passes run in
	// scratch. f_0 enters none, but its flip is charged all the same.
	if c&1 == 1 {
		e.stats.LocalMults += int64(m)
	}
	w := e.ws()
	notF := w.tmp
	// prefix_i = Π_{j>i} (1 − f_j), scanning from the MSB.
	prefix := func(i int) []uint64 { return w.prefix[i*m : (i+1)*m] }
	e.shareInto(prefix(n-1), 1) // public constant sharing (deterministic poly not needed for correctness)
	for i := n - 2; i >= 0; i-- {
		f := r(i + 1)
		if (c>>uint(i+1))&1 == 1 {
			e.oneMinusInto(notF, f)
			f = notF
		}
		e.oneMinusInto(notF, f)
		e.mulInto(prefix(i), prefix(i+1), notF)
	}
	// term_i = r_i(1−c_i) · prefix_i ; r_i(1−c_i) is local. The product is
	// evaluated for every bit — including those zeroed by (1−c_i) — so the
	// round count is a pure function of the protocol structure, never of the
	// opened masked value (whose bits depend on the dealer's randomness).
	// Deterministic round counts are what lets a fault schedule addressed by
	// (vignette, attempt, round) replay bit-for-bit; see docs/FAULTS.md.
	// If c has every bit set, no term counts and c ≥ r: acc stays 0.
	acc := e.newSecret()
	term := notF
	for i := 0; i < n; i++ {
		e.mulInto(term, r(i), prefix(i))
		if (c>>uint(i))&1 == 1 {
			continue // (1−c_i) = 0
		}
		for p := range acc.shares {
			acc.shares[p] = fadd(acc.shares[p], term[p])
		}
	}
	return acc
}

// Mod2m returns a mod 2^m for a signed value a in
// (−2^(ValueBits−1), 2^(ValueBits−1)).
func (e *Engine) Mod2m(a Secret, m int) (Secret, error) {
	if m <= 0 || m >= ValueBits {
		return Secret{}, fmt.Errorf("mpc: Mod2m with m=%d out of (0,%d)", m, ValueBits)
	}
	// Dealer randomness: m shared bits into scratch, weighed into r_low =
	// Σ 2^i·r_i with one reduction per share, and a statistical mask r_high.
	rBits := e.ws().rBits[:m*e.M]
	for i := 0; i < m; i++ {
		e.randomBitInto(rBits[i*e.M : (i+1)*e.M])
	}
	rLow := e.newSecret()
	for p := range rLow.shares {
		rLow.shares[p] = weighBits(rBits[p:], e.M, m)
	}
	e.stats.LocalMults += int64(m * e.M)
	// c = a + 2^(ValueBits−1) + r_low + 2^m·r_high, opened.
	masked := e.ws().tmp
	e.randomBoundedInto(masked, ValueBits+kappaStat-m)
	e.scaleInto(masked, masked, uint64(1)<<uint(m))
	shift := toField(1 << (ValueBits - 1))
	for p := range masked {
		masked[p] = fadd(fadd(fadd(a.shares[p], shift), rLow.shares[p]), masked[p])
	}
	c := e.reconstruct(masked)
	e.stats.Opens++
	e.chargeBroadcastRound(1)
	cLow := c & ((uint64(1) << uint(m)) - 1)
	// u = [cLow < r_low]: a borrow from the low bits.
	u := e.bitLTPublic(cLow, rBits)
	// a mod 2^m = cLow − r_low + 2^m·u, written over r_low, which nothing
	// else holds.
	twoM := uint64(1) << uint(m)
	for p := range rLow.shares {
		rLow.shares[p] = fadd(fsub(cLow, rLow.shares[p]), fmul(u.shares[p], twoM))
	}
	e.stats.LocalMults += int64(2 * e.M)
	return rLow, nil
}

// Trunc returns ⌊a / 2^m⌋ (arithmetic shift) for signed a within range.
func (e *Engine) Trunc(a Secret, m int) (Secret, error) {
	low, err := e.Mod2m(a, m)
	if err != nil {
		return Secret{}, err
	}
	// (a − low)/2^m, written over low, which nothing else holds.
	for p := range low.shares {
		low.shares[p] = fsub(a.shares[p], low.shares[p])
	}
	e.scaleInto(low.shares, low.shares, invPow2[m])
	return low, nil
}

// invPow2[m] is 2^−m in the field.
var invPow2 = func() (t [ValueBits]uint64) {
	t[0] = 1
	for m := 1; m < ValueBits; m++ {
		t[m] = fmul(t[m-1], (fieldPrime+1)/2)
	}
	return t
}()

// LTZ returns the shared bit [a < 0] for a in
// (−2^(ValueBits−1), 2^(ValueBits−1)).
func (e *Engine) LTZ(a Secret) (Secret, error) {
	e.stats.Comparisons++
	t, err := e.Trunc(a, ValueBits-1)
	if err != nil {
		return Secret{}, err
	}
	// ⌊a/2^(k−1)⌋ is −1 for negative a, 0 otherwise: negate in place.
	e.scaleInto(t.shares, t.shares, fieldPrime-1)
	return t, nil
}

// Less returns the shared bit [a < b]. Operands must satisfy
// |a|, |b| < 2^(ValueBits−2) so the difference stays in range.
func (e *Engine) Less(a, b Secret) (Secret, error) {
	return e.LTZ(e.Sub(a, b))
}

// Max returns the shared maximum of the values, by a sequential tournament
// of Less+Select.
func (e *Engine) Max(vals []Secret) (Secret, error) {
	if len(vals) == 0 {
		return Secret{}, errors.New("mpc: empty max")
	}
	best := vals[0]
	for _, v := range vals[1:] {
		lt, err := e.Less(best, v)
		if err != nil {
			return Secret{}, err
		}
		best = e.Select(lt, v, best)
	}
	return best, nil
}

// Argmax returns the (shared) index of the maximum value: the em operator's
// inner loop (Figure 4, right; Figure 5's final committee vignette).
func (e *Engine) Argmax(vals []Secret) (Secret, error) {
	if len(vals) == 0 {
		return Secret{}, errors.New("mpc: empty argmax")
	}
	best := vals[0]
	bestIdx := e.shareValue(0)
	for i, v := range vals[1:] {
		lt, err := e.Less(best, v)
		if err != nil {
			return Secret{}, err
		}
		best = e.Select(lt, v, best)
		idx := e.shareValue(uint64(i + 1))
		bestIdx = e.Select(lt, idx, bestIdx)
	}
	return bestIdx, nil
}

// --- fixed-point layer ---

// JointFixed shares a fixed-point value on behalf of the committee
// (joint noise sampling).
func (e *Engine) JointFixed(v fixed.Fixed) Secret {
	return e.JointSecret(int64(v))
}

// OpenFixed opens a secret as a fixed-point value.
func (e *Engine) OpenFixed(s Secret) fixed.Fixed {
	return fixed.Fixed(e.Open(s))
}

// FixedMul multiplies two shared fixed-point values and rescales by
// truncation. The product before truncation must stay within
// (−2^(ValueBits−1), 2^(ValueBits−1)); callers keep real magnitudes small
// (|a·b| < 2^15 in real terms at the default parameters).
func (e *Engine) FixedMul(a, b Secret) (Secret, error) {
	prod := e.Mul(a, b)
	return e.Trunc(prod, fixed.FracBits)
}
