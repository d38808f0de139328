package bgv

import (
	"crypto/rand"
	"sync"
	"testing"
)

var (
	rnsOnce sync.Once
	rnsCtx  *Context
	rnsKeys *KeyPair
	rnsErr  error
)

// testRNSCtx builds one shared context and keypair at TestRNSParams.
func testRNSCtx(t testing.TB) (*Context, *KeyPair) {
	t.Helper()
	rnsOnce.Do(func() {
		rnsCtx, rnsErr = NewContext(TestRNSParams)
		if rnsErr != nil {
			return
		}
		rnsKeys, rnsErr = rnsCtx.GenerateKeys(rand.Reader)
	})
	if rnsErr != nil {
		t.Fatal(rnsErr)
	}
	return rnsCtx, rnsKeys
}

func TestRNSParamsValidate(t *testing.T) {
	if err := TestRNSParams.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperRNSParams.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := PaperRNSParams.Modulus().BitLen(); got != 135 {
		t.Fatalf("paper modulus is %d bits, want 135", got)
	}
	if PaperRNSParams.N != 1<<15 {
		t.Fatalf("paper ring degree is %d, want 2^15", PaperRNSParams.N)
	}
	bad := []Params{
		{N: 1000, T: 65537, Qi: []uint64{1073479681}},                // degree not a power of two
		{N: 1 << 10, T: 1, Qi: []uint64{1073479681}},                 // t too small
		{N: 1 << 10, T: 65537, Qi: nil},                              // no primes
		{N: 1 << 10, T: 65537, Qi: []uint64{12289}},                  // prime below the plaintext modulus
		{N: 1 << 10, T: 65537, Qi: []uint64{1073479687}},             // q−1 not divisible by 2^11
		{N: 1 << 10, T: 65537, Qi: []uint64{1073479681, 1073479681}}, // duplicate
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestRingByName(t *testing.T) {
	p, err := RingByName("paper")
	if err != nil || p.N != PaperRNSParams.N {
		t.Fatalf("paper ring: %+v, %v", p, err)
	}
	if p, err = RingByName("test"); err != nil || p.N != TestRNSParams.N {
		t.Fatalf("test ring: %+v, %v", p, err)
	}
	if _, err = RingByName("nope"); err == nil {
		t.Fatal("unknown ring name accepted")
	}
}

func TestRNSEncryptDecryptRoundTrip(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	values := []uint64{0, 1, 2, 42, 65536, ctx.Params.T - 1}
	ct, err := ctx.EncryptValues(rand.Reader, keys.PK, values)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ctx.decrypt(keys.SK, ct)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if pt[i] != v%ctx.Params.T {
			t.Fatalf("slot %d: got %d, want %d", i, pt[i], v%ctx.Params.T)
		}
	}
	for i := len(values); i < ctx.Params.N; i++ {
		if pt[i] != 0 {
			t.Fatalf("slot %d: got %d, want 0", i, pt[i])
		}
	}
}

func TestRNSAddSub(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	a, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{5, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{7, 3, 50})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ctx.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ctx.decrypt(keys.SK, sum)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 12 || pt[1] != 13 || pt[2] != 150 {
		t.Fatalf("add: got %v", pt[:3])
	}
}

func TestRNSMul(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	a, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{7})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ctx.Mul(a, b, keys.RLK)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ctx.decrypt(keys.SK, prod)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 21 {
		t.Fatalf("3·7: got %d, want 21", pt[0])
	}
}

// TestRNSMulNegacyclicWraparound exercises the x^n = −1 boundary: the
// product of two degree-(n−1) monomials wraps to −x^(n−2), so the decrypted
// slot n−2 holds T−1 (≡ −1 mod T).
func TestRNSMulNegacyclicWraparound(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	n := ctx.Params.N
	mono := make([]uint64, n)
	mono[n-1] = 1
	a, err := ctx.EncryptValues(rand.Reader, keys.PK, mono)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptValues(rand.Reader, keys.PK, mono)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ctx.Mul(a, b, keys.RLK)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ctx.decrypt(keys.SK, prod)
	if err != nil {
		t.Fatal(err)
	}
	want := ctx.Params.T - 1
	if pt[n-2] != want {
		t.Fatalf("x^(n-1)·x^(n-1): slot %d = %d, want %d", n-2, pt[n-2], want)
	}
	for i, v := range pt {
		if i != n-2 && v != 0 {
			t.Fatalf("slot %d: got %d, want 0", i, v)
		}
	}
}

// TestRNSPaperScale is a single paper-parameter round trip (2^15 / 135-bit):
// the instantiation the benchmarks measure must actually work.
func TestRNSPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale keygen is slow; skipped with -short")
	}
	ctx, err := NewContext(PaperRNSParams)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := ctx.GenerateKeys(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{11, 22})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{5, 1})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := ctx.Mul(a, b, keys.RLK)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ctx.decrypt(keys.SK, prod)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 55 || pt[1] != 11*1+22*5 {
		t.Fatalf("paper-scale mul: got %v, want [55 132]", pt[:2])
	}
}

// TestRNSPooledBuffersDoNotEscape pins the pooling discipline: results come
// from fresh slabs, so a ciphertext returned by Encrypt or Mul must be
// unaffected by any later call that reuses the pooled scratch.
func TestRNSPooledBuffersDoNotEscape(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	first, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{111})
	if err != nil {
		t.Fatal(err)
	}
	c0 := append([]uint64(nil), first.C0...)
	c1 := append([]uint64(nil), first.C1...)
	// Churn every pooled path: encryption and multiplication.
	second, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{222})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Mul(first, second, keys.RLK); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{333}); err != nil {
		t.Fatal(err)
	}
	for i := range c0 {
		if first.C0[i] != c0[i] || first.C1[i] != c1[i] {
			t.Fatalf("word %d of an issued ciphertext changed under pool reuse", i)
		}
	}
	pt, err := ctx.decrypt(keys.SK, first)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 111 {
		t.Fatalf("issued ciphertext decrypts to %d after pool churn, want 111", pt[0])
	}
	// Mul after Mul: the pooled scratch still holds the NTT-domain operands
	// of the multiplication above. An operand too short to overwrite them
	// must be rejected — not multiplied as whatever the last caller left
	// behind, which decrypts to garbage with a nil error.
	for name, empty := range map[string]*Ciphertext{
		"zero value": {},
		"short":      {C0: first.C0[:ctx.n], C1: first.C1[:ctx.n]},
	} {
		if got, err := ctx.Mul(empty, second, keys.RLK); err == nil {
			stale, _ := ctx.decrypt(keys.SK, got)
			t.Fatalf("Mul on a %s operand returned a ciphertext built from stale scratch (decrypts to %v…)", name, stale[:2])
		}
		if _, err := ctx.Mul(second, empty, keys.RLK); err == nil {
			t.Fatalf("Mul with a %s right operand accepted", name)
		}
	}
}
