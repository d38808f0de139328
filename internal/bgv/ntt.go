package bgv

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// Negacyclic number-theoretic transform over Z_q[x]/(x^n + 1).
//
// Polynomial multiplication in the BGV ring is a negacyclic convolution; the
// NTT makes it O(n log n). The production transforms below are division-free
// and twist-free: the ψ pre/post-twist is merged into the butterflies by
// storing ψ-adjusted twiddle factors in bit-reversed order (the standard
// Cooley-Tukey forward / Gentleman-Sande inverse negacyclic pair), every
// twiddle multiply uses Shoup precomputation instead of a hardware division,
// butterfly values stay lazily reduced (below 4q forward, 2q inverse;
// Params.Validate keeps q < 2^62 so 4q fits a 64-bit word), and n⁻¹ is folded
// into the last inverse stage. Forward produces the evaluation domain in
// bit-reversed order and Inverse consumes it, so the explicit permutation
// pass disappears; point-wise products between the two are order-agnostic.
// See docs/KERNELS.md for the invariants and the equivalence argument.
//
// The textbook formulation is retained in ntt_reference_test.go; randomized tests
// assert the optimized pair matches it bit for bit (modulo the documented
// bit-reversal of the evaluation domain).

// nttTables holds the precomputed roots for one ring degree.
type nttTables struct {
	n int
	q uint64

	// Merged-twist tables for the optimized transforms: psiRev[i] = ψ^brv(i)
	// and psiInvRev[i] = ψ^−brv(i), where brv reverses log2(n) bits, each with
	// its Shoup companion word.
	psiRev         []uint64
	psiRevShoup    []uint64
	psiInvRev      []uint64
	psiInvRevShoup []uint64
	// n⁻¹ and ψ^−brv(1)·n⁻¹, folded into the final inverse stage.
	nInv            uint64
	nInvShoup       uint64
	psiInvNInv      uint64
	psiInvNInvShoup uint64

	// Reference (textbook) tables, kept for the equivalence tests.
	psi     []uint64 // ψ^i, i = 0..n-1
	psiInv  []uint64 // ψ^-i
	omega   []uint64 // ω^i for the cyclic transform
	omegaI  []uint64 // ω^-i
	bitRevs []int    // bit-reversal permutation
}

// findPsi locates a primitive 2n-th root of unity mod q by random search:
// ψ = x^((q−1)/2n) is a 2n-th root; it is primitive iff ψ^n = −1. Candidates
// are drawn by rejection sampling so they are uniform in [0, q) — a raw
// 64-bit draw reduced mod q would be biased toward small residues — and the
// search is deterministic given the byte stream r produces.
func findPsi(r io.Reader, n int, q uint64) (uint64, error) {
	if (q-1)%uint64(2*n) != 0 {
		return 0, fmt.Errorf("bgv: q−1 not divisible by 2n=%d", 2*n)
	}
	exp := (q - 1) / uint64(2*n)
	// Accept only draws below the largest multiple of q that fits in 64 bits.
	bound := (^uint64(0) / q) * q
	var buf [8]byte
	for tries := 0; tries < 4096; tries++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint64(buf[:])
		if v >= bound {
			continue
		}
		x := v % q
		if x < 2 {
			continue
		}
		psi := powMod(x, exp, q)
		if powMod(psi, uint64(n), q) == q-1 {
			return psi, nil
		}
	}
	return 0, fmt.Errorf("bgv: no primitive 2n-th root found for n=%d", n)
}

func newNTTTables(n int, q uint64) (*nttTables, error) {
	return newNTTTablesFrom(rand.Reader, n, q)
}

// newNTTTablesFrom builds the tables drawing root candidates from r; the
// result is deterministic given the same reader bytes.
func newNTTTablesFrom(r io.Reader, n int, q uint64) (*nttTables, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("bgv: ring degree %d is not a power of two ≥ 2", n)
	}
	psi, err := findPsi(r, n, q)
	if err != nil {
		return nil, err
	}
	t := &nttTables{n: n, q: q}
	t.psi = make([]uint64, n)
	t.psiInv = make([]uint64, n)
	t.omega = make([]uint64, n)
	t.omegaI = make([]uint64, n)
	psiInv := invMod(psi, q)
	omega := mulMod(psi, psi, q)
	omegaInv := invMod(omega, q)
	p, pi, w, wi := uint64(1), uint64(1), uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		t.psi[i], t.psiInv[i], t.omega[i], t.omegaI[i] = p, pi, w, wi
		p = mulMod(p, psi, q)
		pi = mulMod(pi, psiInv, q)
		w = mulMod(w, omega, q)
		wi = mulMod(wi, omegaInv, q)
	}
	t.nInv = invMod(uint64(n), q)
	t.bitRevs = make([]int, n)
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		t.bitRevs[i] = int(bits.Reverse64(uint64(i)) >> (64 - logN))
	}
	// Merged-twist twiddles in bit-reversed order, with Shoup companions.
	t.psiRev = make([]uint64, n)
	t.psiRevShoup = make([]uint64, n)
	t.psiInvRev = make([]uint64, n)
	t.psiInvRevShoup = make([]uint64, n)
	for i := 0; i < n; i++ {
		rev := t.bitRevs[i]
		t.psiRev[i] = t.psi[rev]
		t.psiRevShoup[i] = shoupPrecomp(t.psiRev[i], q)
		t.psiInvRev[i] = t.psiInv[rev]
		t.psiInvRevShoup[i] = shoupPrecomp(t.psiInvRev[i], q)
	}
	t.nInvShoup = shoupPrecomp(t.nInv, q)
	t.psiInvNInv = mulMod(t.psiInvRev[1], t.nInv, q)
	t.psiInvNInvShoup = shoupPrecomp(t.psiInvNInv, q)
	return t, nil
}

// Forward transforms a coefficient-domain polynomial (standard order,
// coefficients in [0, q)) to the evaluation domain in bit-reversed order,
// in place. Cooley-Tukey butterflies with the ψ-twist merged into the
// twiddles; intermediate values are lazily reduced below 4q and swept back
// to [0, q) at the end.
func (t *nttTables) Forward(a []uint64) {
	n, q := t.n, t.q
	twoQ := 2 * q
	tt := n
	for m := 1; m < n; m <<= 1 {
		tt >>= 1
		for i := 0; i < m; i++ {
			w := t.psiRev[m+i]
			ws := t.psiRevShoup[m+i]
			j1 := 2 * i * tt
			for j := j1; j < j1+tt; j++ {
				u := a[j]
				if u >= twoQ {
					u -= twoQ
				}
				v := mulModShoupLazy(a[j+tt], w, ws, q)
				a[j] = u + v
				a[j+tt] = u + twoQ - v
			}
		}
	}
	for i := 0; i < n; i++ {
		x := a[i]
		if x >= twoQ {
			x -= twoQ
		}
		if x >= q {
			x -= q
		}
		a[i] = x
	}
}

// Inverse transforms an evaluation-domain polynomial (bit-reversed order, as
// produced by Forward, values in [0, q)) back to the coefficient domain in
// standard order, in place. Gentleman-Sande butterflies keep values lazily
// reduced below 2q; the final stage folds in n⁻¹ and the last reduction
// sweep returns every coefficient to [0, q).
func (t *nttTables) Inverse(a []uint64) {
	n, q := t.n, t.q
	twoQ := 2 * q
	tt := 1
	for m := n; m > 2; m >>= 1 {
		h := m >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			w := t.psiInvRev[h+i]
			ws := t.psiInvRevShoup[h+i]
			for j := j1; j < j1+tt; j++ {
				u := a[j]
				v := a[j+tt]
				s := u + v
				if s >= twoQ {
					s -= twoQ
				}
				a[j] = s
				a[j+tt] = mulModShoupLazy(u+twoQ-v, w, ws, q)
			}
			j1 += 2 * tt
		}
		tt <<= 1
	}
	// Last stage (m = 2) with n⁻¹ folded into both butterfly legs.
	half := n >> 1
	for j := 0; j < half; j++ {
		u := a[j]
		v := a[j+half]
		a[j] = mulModShoupLazy(u+v, t.nInv, t.nInvShoup, q)
		a[j+half] = mulModShoupLazy(u+twoQ-v, t.psiInvNInv, t.psiInvNInvShoup, q)
	}
	for i := 0; i < n; i++ {
		if a[i] >= q {
			a[i] -= q
		}
	}
}
