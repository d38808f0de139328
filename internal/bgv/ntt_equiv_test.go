package bgv

// Equivalence properties for the division-free kernels: the optimized
// Forward/Inverse pair must match the retained textbook transforms bit for
// bit on random polynomials across every supported ring degree. Forward's
// output is the reference output in bit-reversed order (the documented
// convention change); Inverse composed with Forward is the identity, exactly.

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// equivDegrees spans the supported range: the minimum ring degree, the test
// and bench degrees, and odd-sized stage counts in between.
var equivDegrees = []int{16, 32, 64, 256, 1024, 4096}

func randomPoly(t *testing.T, n int) Poly {
	t.Helper()
	p := make(Poly, n)
	s := uint64(0x9e3779b97f4a7c15)
	buf := make([]byte, 8)
	if _, err := rand.Read(buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		s = s*131 + uint64(b)
	}
	for i := range p {
		s = s*6364136223846793005 + 1442695040888963407
		p[i] = s % Q
	}
	return p
}

func TestForwardMatchesReference(t *testing.T) {
	for _, n := range equivDegrees {
		tables, err := newNTTTables(n, Q)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for trial := 0; trial < 4; trial++ {
			p := randomPoly(t, n)
			opt := append(Poly(nil), p...)
			ref := append(Poly(nil), p...)
			tables.Forward(opt)
			tables.referenceForward(ref)
			for i := 0; i < n; i++ {
				if opt[i] != ref[tables.bitRevs[i]] {
					t.Fatalf("n=%d: Forward[%d] = %d, reference[brv] = %d",
						n, i, opt[i], ref[tables.bitRevs[i]])
				}
			}
			// Inverse must undo Forward exactly, and match the reference
			// inverse applied to the reference evaluation domain.
			tables.Inverse(opt)
			tables.referenceInverse(ref)
			for i := 0; i < n; i++ {
				if opt[i] != p[i] {
					t.Fatalf("n=%d: Inverse∘Forward differs at %d: %d != %d", n, i, opt[i], p[i])
				}
				if ref[i] != p[i] {
					t.Fatalf("n=%d: reference round trip differs at %d", n, i)
				}
			}
		}
	}
}

// TestForwardOutputReduced checks the final sweep's invariant: every output
// coefficient is fully reduced to [0, q), which downstream point-wise
// multiplications rely on.
func TestForwardOutputReduced(t *testing.T) {
	for _, n := range []int{16, 1024} {
		tables, err := newNTTTables(n, Q)
		if err != nil {
			t.Fatal(err)
		}
		p := make(Poly, n)
		for i := range p {
			p[i] = Q - 1 // worst case input
		}
		tables.Forward(p)
		for i, v := range p {
			if v >= Q {
				t.Fatalf("n=%d: Forward output %d at %d not reduced", n, v, i)
			}
		}
		tables.Inverse(p)
		for i, v := range p {
			if v >= Q {
				t.Fatalf("n=%d: Inverse output %d at %d not reduced", n, v, i)
			}
		}
	}
}

// TestPolyMulMatchesReferenceTransforms multiplies random polynomials with
// the production polyMulRow (optimized transforms) and with the reference
// transforms and asserts identical coefficients — the end-to-end consequence
// of transform equivalence that the ciphertext paths depend on.
func TestPolyMulMatchesReferenceTransforms(t *testing.T) {
	c, _ := testCtx(t)
	n := c.Params.N
	for trial := 0; trial < 4; trial++ {
		a := randomPoly(t, n)
		b := randomPoly(t, n)
		got := c.polyMulRow(0, a, b)
		ae := append(Poly(nil), a...)
		be := append(Poly(nil), b...)
		c.ntt[0].referenceForward(ae)
		c.ntt[0].referenceForward(be)
		for i := range ae {
			ae[i] = mulMod(ae[i], be[i], Q)
		}
		c.ntt[0].referenceInverse(ae)
		if !polyEq(got, ae) {
			t.Fatal("polyMulRow differs from reference-transform product")
		}
	}
}

// TestNTTTablesDeterministic asserts table generation is a pure function of
// the candidate byte stream: the same reader bytes produce the same ψ and
// therefore identical tables.
func TestNTTTablesDeterministic(t *testing.T) {
	seed := make([]byte, 64*1024)
	if _, err := rand.Read(seed); err != nil {
		t.Fatal(err)
	}
	t1, err := newNTTTablesFrom(bytes.NewReader(seed), 64, Q)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := newNTTTablesFrom(bytes.NewReader(seed), 64, Q)
	if err != nil {
		t.Fatal(err)
	}
	if t1.psi[1] != t2.psi[1] {
		t.Fatalf("same reader produced different ψ: %d vs %d", t1.psi[1], t2.psi[1])
	}
	for i := range t1.psiRev {
		if t1.psiRev[i] != t2.psiRev[i] || t1.psiRevShoup[i] != t2.psiRevShoup[i] ||
			t1.psiInvRev[i] != t2.psiInvRev[i] || t1.psiInvRevShoup[i] != t2.psiInvRevShoup[i] {
			t.Fatalf("tables differ at %d", i)
		}
	}
}

// TestFindPsiRejectionSampling checks ψ candidates are drawn unbiased: a
// reader that first emits a draw above the rejection bound must have that
// draw skipped, yielding the same ψ as a stream without it.
func TestFindPsiRejectionSampling(t *testing.T) {
	// bound is the largest multiple of Q that fits in 64 bits; bytes encoding
	// a value ≥ bound must be rejected outright rather than reduced mod Q.
	bound := (^uint64(0) / Q) * Q
	high := make([]byte, 8)
	for i := range high {
		high[i] = 0xff // 2^64−1 ≥ bound
	}
	tail := make([]byte, 32*1024)
	if _, err := rand.Read(tail); err != nil {
		t.Fatal(err)
	}
	psiClean, err := findPsi(bytes.NewReader(tail), 64, Q)
	if err != nil {
		t.Fatal(err)
	}
	psiSkipped, err := findPsi(bytes.NewReader(append(append([]byte(nil), high...), tail...)), 64, Q)
	if err != nil {
		t.Fatal(err)
	}
	if psiClean != psiSkipped {
		t.Fatalf("rejected draw changed the result: %d vs %d", psiClean, psiSkipped)
	}
	if bound == 0 {
		t.Fatal("rejection bound must be positive")
	}
}
