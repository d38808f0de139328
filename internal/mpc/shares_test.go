package mpc

import (
	"fmt"
	"testing"
)

// subsetLagrange is one threshold subset of a committee's evaluation
// points and its Lagrange coefficients at 0.
type subsetLagrange struct {
	parties []int // 0-based; party i holds the evaluation at x = i+1
	coeffs  []uint64
}

// thresholdSubsets returns every T-subset of m parties for m ≤ 11, and at
// larger m the m cyclic windows of T consecutive parties.
func thresholdSubsets(m, t int) []subsetLagrange {
	var sets [][]int
	if m <= 11 {
		var rec func(start int, cur []int)
		rec = func(start int, cur []int) {
			if len(cur) == t {
				sets = append(sets, append([]int(nil), cur...))
				return
			}
			for i := start; i < m; i++ {
				rec(i+1, append(cur, i))
			}
		}
		rec(0, nil)
	} else {
		for s := 0; s < m; s++ {
			w := make([]int, t)
			for j := range w {
				w[j] = (s + j) % m
			}
			sets = append(sets, w)
		}
	}
	out := make([]subsetLagrange, len(sets))
	for k, set := range sets {
		c := make([]uint64, t)
		for a, i := range set {
			num, den := uint64(1), uint64(1)
			xi := uint64(i + 1)
			for b, j := range set {
				if a != b {
					xj := uint64(j + 1)
					num, den = fmul(num, xj), fmul(den, fsub(xj, xi))
				}
			}
			c[a] = fmul(num, finv(den))
		}
		out[k] = subsetLagrange{set, c}
	}
	return out
}

// onePolynomial returns the value every threshold subset of shares
// reconstructs, and fails t unless they all agree: a sharing of degree
// T−1 is determined by any T of its shares, so every share outside a subset
// is checked against the polynomial the subset fixes.
func onePolynomial(t *testing.T, what string, subsets []subsetLagrange, shares []uint64) uint64 {
	t.Helper()
	var first uint64
	for k, s := range subsets {
		v := uint64(0)
		for a, i := range s.parties {
			v = fadd(v, fmul(s.coeffs[a], shares[i]))
		}
		if k == 0 {
			first = v
		} else if v != first {
			t.Fatalf("%s: parties %v reconstruct %d, parties %v reconstruct %d",
				what, subsets[0].parties, first, s.parties, v)
		}
	}
	return first
}

// TestSharesOnOnePolynomial checks every share of every sharing the engine
// makes, not only the first T that reconstruct and Transfer read: every
// T-subset of the M parties must reconstruct the same value. Flipping one
// bit of the last party's share in any sharing the dealer makes, or in any
// component of a Beaver triple, fails it.
func TestSharesOnOnePolynomial(t *testing.T) {
	partner := map[int]int{3: 5, 4: 11, 5: 41, 11: 3, 41: 4}
	for _, m := range []int{3, 4, 5, 11, 41} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			e, o := newEngine(t, m), newEngine(t, partner[m])
			subs, osubs := thresholdSubsets(m, e.T), thresholdSubsets(o.M, o.T)
			check := func(what string, s Secret, want int64) {
				t.Helper()
				if got := fromField(onePolynomial(t, what, subs, s.shares)); got != want {
					t.Errorf("%s: every subset reconstructs %d, want %d", what, got, want)
				}
			}
			x, err := e.Input(m-1, -321)
			if err != nil {
				t.Fatal(err)
			}
			check("Input", x, -321)
			y := e.JointSecret(654)
			check("JointSecret", y, 654)
			check("Mul", e.Mul(x, y), -321*654)
			// The triple that product consumed: a, b and ab, each on one
			// polynomial.
			w := e.ws()
			ta := onePolynomial(t, "triple a", subs, w.ta)
			tb := onePolynomial(t, "triple b", subs, w.tb)
			if tc := onePolynomial(t, "triple ab", subs, w.tc); tc != fmul(ta, tb) {
				t.Errorf("triple: ab reconstructs %d, want %d", tc, fmul(ta, tb))
			}
			lt, err := e.Less(x, y)
			if err != nil {
				t.Fatal(err)
			}
			check("Less", lt, 1)
			vals := make([]Secret, 4)
			for i, v := range []int64{5, -2, 17, 9} {
				vals[i] = e.JointSecret(v)
			}
			am, err := e.Argmax(vals)
			if err != nil {
				t.Fatal(err)
			}
			check("Argmax", am, 2)
			bit := make([]uint64, m)
			for i := 0; i < 8; i++ {
				e.randomBitInto(bit)
				if v := onePolynomial(t, "random bit", subs, bit); v > 1 {
					t.Errorf("random bit reconstructs %d", v)
				}
			}
			e.randomBoundedInto(bit, 20)
			if v := onePolynomial(t, "bounded random", subs, bit); v >= 1<<20 {
				t.Errorf("bounded random reconstructs %d, want below 2^20", v)
			}
			there := Transfer(e, []Secret{x, y}, o)
			for i, want := range []int64{-321, 654} {
				if got := fromField(onePolynomial(t, "Transfer out", osubs, there[i].shares)); got != want {
					t.Errorf("Transfer %d→%d: %d, want %d", m, o.M, got, want)
				}
			}
			back := Transfer(o, there, e)
			check("Transfer back", back[0], -321)
			check("Transfer back", back[1], 654)
		})
	}
}
