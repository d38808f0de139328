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
	pt, err := ctx.Decrypt(keys.SK, ct)
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
	pt, err := ctx.Decrypt(keys.SK, sum)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 12 || pt[1] != 13 || pt[2] != 150 {
		t.Fatalf("add: got %v", pt[:3])
	}
	diff, err := ctx.Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pt, err = ctx.Decrypt(keys.SK, diff)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != ctx.Params.T-2 || pt[1] != 7 || pt[2] != 50 {
		t.Fatalf("sub: got %v", pt[:3])
	}
}

// TestRNSPlainOps runs the plaintext-operand operations on three lanes:
// each is a per-row loop, and a plaintext coefficient (below T) must act as
// the same residue in every lane.
func TestRNSPlainOps(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	a, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ctx.Encode([]uint64{5, ctx.Params.T - 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := ctx.Encode([]uint64{4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func() (*Ciphertext, error)
		want [2]uint64
	}{
		{"AddPlain", func() (*Ciphertext, error) { return ctx.AddPlain(a, m) }, [2]uint64{15, 19}},
		{"MulPlain", func() (*Ciphertext, error) { return ctx.MulPlain(a, four) }, [2]uint64{40, 80}},
		{"MulScalar", func() (*Ciphertext, error) { return ctx.MulScalar(a, ctx.Params.T+3) }, [2]uint64{30, 60}},
	} {
		ct, err := tc.op()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pt, err := ctx.Decrypt(keys.SK, ct)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pt[0] != tc.want[0] || pt[1] != tc.want[1] {
			t.Errorf("%s: got %v, want %v", tc.name, pt[:2], tc.want)
		}
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
	pt, err := ctx.Decrypt(keys.SK, prod)
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
	pt, err := ctx.Decrypt(keys.SK, prod)
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

func TestRNSSum(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	const k = 40 // above minParallelSum when workers > 1
	cts := make([]*Ciphertext, k)
	var want uint64
	for i := range cts {
		v := uint64(i * 3)
		want += v
		ct, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{v})
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	sum, err := ctx.Sum(cts)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ctx.Decrypt(keys.SK, sum)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != want%ctx.Params.T {
		t.Fatalf("sum: got %d, want %d", pt[0], want%ctx.Params.T)
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
	pt, err := ctx.Decrypt(keys.SK, prod)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 55 || pt[1] != 11*1+22*5 {
		t.Fatalf("paper-scale mul: got %v, want [55 132]", pt[:2])
	}
}
