package bgv

import (
	"crypto/rand"
	"sync"
	"testing"
	"testing/quick"
)

// The L = 1 suite: every test in this file runs the ring on the one-prime
// basis TestParams (rns_test.go is the three-prime suite).
var (
	ctxOnce sync.Once
	ctx     *Context
	keys    *KeyPair
)

func testCtx(t testing.TB) (*Context, *KeyPair) {
	ctxOnce.Do(func() {
		var err error
		ctx, err = NewContext(TestParams)
		if err != nil {
			panic(err)
		}
		keys, err = ctx.GenerateKeys(rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return ctx, keys
}

func TestParamsValidate(t *testing.T) {
	qi := []uint64{Q}
	bad := []Params{
		{N: 10, T: 17, Qi: qi},           // not a power of two
		{N: 8, T: 17, Qi: qi},            // too small
		{N: 1 << 18, T: 17, Qi: qi},      // exceeds Q's 2-adicity
		{N: 1 << 10, T: 1, Qi: qi},       // t too small
		{N: 1 << 10, T: 1 << 21, Qi: qi}, // t too large
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid params", p)
		}
	}
	if err := TestParams.Validate(); err != nil {
		t.Errorf("TestParams rejected: %v", err)
	}
}

func TestNTTRoundTrip(t *testing.T) {
	c, _ := testCtx(t)
	p := uniformPoly(t, c, rand.Reader)
	orig := append(Poly(nil), p...)
	c.ntt[0].Forward(p)
	c.ntt[0].Inverse(p)
	for i := range p {
		if p[i] != orig[i] {
			t.Fatalf("NTT round trip differs at %d: %d != %d", i, p[i], orig[i])
		}
	}
}

// Property: NTT∘INTT = id on random polynomials.
func TestQuickNTTRoundTrip(t *testing.T) {
	c, _ := testCtx(t)
	f := func(seed uint64) bool {
		p := make(Poly, c.n)
		s := seed
		for i := range p {
			s = s*6364136223846793005 + 1442695040888963407
			p[i] = s % Q
		}
		orig := append(Poly(nil), p...)
		c.ntt[0].Forward(p)
		c.ntt[0].Inverse(p)
		for i := range p {
			if p[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// polyMulRow must agree with schoolbook negacyclic convolution.
func TestPolyMulMatchesSchoolbook(t *testing.T) {
	c, _ := testCtx(t)
	n := c.Params.N
	a := make(Poly, n)
	b := make(Poly, n)
	// Sparse polynomials keep the schoolbook check fast.
	a[0], a[1], a[n-1] = 3, 5, 7
	b[0], b[2], b[n-1] = 11, 13, 17
	got := c.polyMulRow(0, a, b)
	want := make(Poly, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if b[j] == 0 {
				continue
			}
			prod := mulMod(a[i], b[j], Q)
			k := i + j
			if k < n {
				want[k] = addMod(want[k], prod, Q)
			} else {
				want[k-n] = subMod(want[k-n], prod, Q) // x^n = −1
			}
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("polyMulRow differs at %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestEncryptDecrypt(t *testing.T) {
	c, kp := testCtx(t)
	values := []uint64{0, 1, 42, 65536, 12345}
	ct, err := c.EncryptValues(rand.Reader, kp.PK, values)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.Decrypt(kp.SK, ct)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if pt[i] != v%c.Params.T {
			t.Errorf("slot %d = %d, want %d", i, pt[i], v%c.Params.T)
		}
	}
	for i := len(values); i < c.Params.N; i++ {
		if pt[i] != 0 {
			t.Errorf("slot %d = %d, want 0", i, pt[i])
		}
	}
}

func TestHomomorphicAdd(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{100, 200, 300})
	b, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{1, 2, 3})
	sum, err := c.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := c.Decrypt(kp.SK, sum)
	for i, want := range []uint64{101, 202, 303} {
		if pt[i] != want {
			t.Errorf("slot %d = %d, want %d", i, pt[i], want)
		}
	}
}

func TestHomomorphicSub(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{100})
	b, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{30})
	diff, err := c.Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := c.Decrypt(kp.SK, diff)
	if pt[0] != 70 {
		t.Errorf("100-30 = %d", pt[0])
	}
	// Negative result wraps mod T.
	diff2, _ := c.Sub(b, a)
	pt2, _ := c.Decrypt(kp.SK, diff2)
	if pt2[0] != c.Params.T-70 {
		t.Errorf("30-100 = %d, want %d", pt2[0], c.Params.T-70)
	}
}

func TestAddPlainMulScalar(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{10, 20})
	m, _ := c.Encode([]uint64{5, 6})
	ap, err := c.AddPlain(a, m)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := c.Decrypt(kp.SK, ap)
	if pt[0] != 15 || pt[1] != 26 {
		t.Errorf("AddPlain = %d,%d", pt[0], pt[1])
	}
	ms, err := c.MulScalar(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ = c.Decrypt(kp.SK, ms)
	if pt[0] != 30 || pt[1] != 60 {
		t.Errorf("MulScalar = %d,%d", pt[0], pt[1])
	}
}

func TestMulPlainScalarPoly(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{7, 9})
	m, _ := c.Encode([]uint64{4}) // degree-0: scalar multiply
	mp, err := c.MulPlain(a, m)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := c.Decrypt(kp.SK, mp)
	if pt[0] != 28 || pt[1] != 36 {
		t.Errorf("MulPlain = %d,%d", pt[0], pt[1])
	}
}

// The ⊠ operator: multiply two ciphertexts with relinearization.
func TestCiphertextMul(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{6})
	b, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{7})
	prod, err := c.Mul(a, b, kp.RLK)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.Decrypt(kp.SK, prod)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 42 {
		t.Fatalf("E(6) ⊠ E(7) = %d, want 42", pt[0])
	}
}

func TestMulThenAdd(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{5})
	b, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{8})
	d, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{2})
	prod, err := c.Mul(a, b, kp.RLK)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Add(prod, d)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := c.Decrypt(kp.SK, res)
	if pt[0] != 42 {
		t.Fatalf("5*8+2 = %d, want 42", pt[0])
	}
}

func TestMulRequiresRelinKey(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{1})
	if _, err := c.Mul(a, a, nil); err == nil {
		t.Fatal("Mul without relin key accepted")
	}
	_ = kp
}

func TestSumManyCiphertexts(t *testing.T) {
	c, kp := testCtx(t)
	// Sum 50 one-hot vectors, the paper's canonical aggregation.
	const devices, cats = 50, 8
	counts := make([]uint64, cats)
	cts := make([]*Ciphertext, devices)
	for d := 0; d < devices; d++ {
		hot := d % cats
		counts[hot]++
		vec := make([]uint64, cats)
		vec[hot] = 1
		ct, err := c.EncryptValues(rand.Reader, kp.PK, vec)
		if err != nil {
			t.Fatal(err)
		}
		cts[d] = ct
	}
	sum, err := c.Sum(cts)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := c.Decrypt(kp.SK, sum)
	for i := 0; i < cats; i++ {
		if pt[i] != counts[i] {
			t.Errorf("category %d = %d, want %d", i, pt[i], counts[i])
		}
	}
}

func TestSumEmpty(t *testing.T) {
	c, _ := testCtx(t)
	if _, err := c.Sum(nil); err == nil {
		t.Fatal("empty Sum accepted")
	}
}

func TestEncodeTooLong(t *testing.T) {
	c, _ := testCtx(t)
	if _, err := c.Encode(make([]uint64, c.Params.N+1)); err == nil {
		t.Fatal("oversized Encode accepted")
	}
}

func TestDecryptMalformed(t *testing.T) {
	c, kp := testCtx(t)
	if _, err := c.Decrypt(kp.SK, nil); err == nil {
		t.Error("nil ciphertext accepted")
	}
	if _, err := c.Decrypt(kp.SK, &Ciphertext{C0: make(Poly, 3), C1: make(Poly, 3)}); err == nil {
		t.Error("wrong-degree ciphertext accepted")
	}
}

// TestNilCiphertextOps: every ciphertext-taking method rejects an operand
// that is nil or not shaped for this ring — a zero value, a truncated one, a
// ciphertext of the three-prime ring — with the error Decrypt uses, in either
// operand position. (Unchecked, the row slicing panics, and Mul computes on
// whatever the previous call left in its pooled scratch.)
func TestNilCiphertextOps(t *testing.T) {
	c, kp := testCtx(t)
	a, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{1})
	m, _ := c.Encode([]uint64{2})
	c3, kp3 := testRNSCtx(t)
	wrongRing, err := c3.EncryptValues(rand.Reader, kp3.PK, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]*Ciphertext{
		"nil":        nil,
		"zero value": {},
		"short":      {C0: a.C0[:c.n-1], C1: a.C1[:c.n-1]},
		"short C1":   {C0: a.C0, C1: a.C1[:3]},
		"wrong ring": wrongRing,
	}
	ops := map[string]func(x *Ciphertext) error{
		"Add(x, a)":  func(x *Ciphertext) error { _, err := c.Add(x, a); return err },
		"Add(a, x)":  func(x *Ciphertext) error { _, err := c.Add(a, x); return err },
		"Sub(x, a)":  func(x *Ciphertext) error { _, err := c.Sub(x, a); return err },
		"Sub(a, x)":  func(x *Ciphertext) error { _, err := c.Sub(a, x); return err },
		"Mul(x, a)":  func(x *Ciphertext) error { _, err := c.Mul(x, a, kp.RLK); return err },
		"Mul(a, x)":  func(x *Ciphertext) error { _, err := c.Mul(a, x, kp.RLK); return err },
		"AddPlain":   func(x *Ciphertext) error { _, err := c.AddPlain(x, m); return err },
		"MulPlain":   func(x *Ciphertext) error { _, err := c.MulPlain(x, m); return err },
		"MulScalar":  func(x *Ciphertext) error { _, err := c.MulScalar(x, 2); return err },
		"Sum{a,x,a}": func(x *Ciphertext) error { _, err := c.Sum([]*Ciphertext{a, x, a}); return err },
		"Sum{x}":     func(x *Ciphertext) error { _, err := c.Sum([]*Ciphertext{x}); return err },
		"Decrypt":    func(x *Ciphertext) error { _, err := c.Decrypt(kp.SK, x); return err },
		"Marshal":    func(x *Ciphertext) error { _, err := c.MarshalCiphertext(x); return err },
	}
	for opName, op := range ops {
		for badName, x := range bad {
			if err := op(x); err == nil || err.Error() != "bgv: malformed ciphertext" {
				t.Errorf("%s on a %s ciphertext: err = %v, want bgv: malformed ciphertext", opName, badName, err)
			}
		}
	}
	// A plaintext of the wrong degree is rejected too, not indexed.
	if _, err := c.AddPlain(a, m[:3]); err == nil {
		t.Error("AddPlain with a short plaintext accepted")
	}
	if _, err := c.MulPlain(a, m[:3]); err == nil {
		t.Error("MulPlain with a short plaintext accepted")
	}
}

func TestCiphertextBytes(t *testing.T) {
	c, kp := testCtx(t)
	ct, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{1})
	want := 8 * 2 * c.Params.N
	if ct.Bytes() != want {
		t.Errorf("Bytes() = %d, want %d", ct.Bytes(), want)
	}
	var nilCt *Ciphertext
	if nilCt.Bytes() != 0 {
		t.Error("nil Bytes() != 0")
	}
}

// Property: Dec(Enc(a) ⊞ Enc(b)) = a+b mod T slot-wise.
func TestQuickAddHomomorphism(t *testing.T) {
	c, kp := testCtx(t)
	f := func(a, b uint16) bool {
		ca, e1 := c.EncryptValues(rand.Reader, kp.PK, []uint64{uint64(a)})
		cb, e2 := c.EncryptValues(rand.Reader, kp.PK, []uint64{uint64(b)})
		if e1 != nil || e2 != nil {
			return false
		}
		sum, err := c.Add(ca, cb)
		if err != nil {
			return false
		}
		pt, err := c.Decrypt(kp.SK, sum)
		return err == nil && pt[0] == (uint64(a)+uint64(b))%c.Params.T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: Dec(Enc(a) ⊠ Enc(b)) = a·b mod T.
func TestQuickMulHomomorphism(t *testing.T) {
	c, kp := testCtx(t)
	f := func(a, b uint8) bool {
		ca, e1 := c.EncryptValues(rand.Reader, kp.PK, []uint64{uint64(a)})
		cb, e2 := c.EncryptValues(rand.Reader, kp.PK, []uint64{uint64(b)})
		if e1 != nil || e2 != nil {
			return false
		}
		prod, err := c.Mul(ca, cb, kp.RLK)
		if err != nil {
			return false
		}
		pt, err := c.Decrypt(kp.SK, prod)
		return err == nil && pt[0] == uint64(a)*uint64(b)%c.Params.T
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c, kp := testCtx(b)
	vals := []uint64{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncryptValues(rand.Reader, kp.PK, vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	c, kp := testCtx(b)
	x, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{1})
	y, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	c, kp := testCtx(b)
	x, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{3})
	y, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Mul(x, y, kp.RLK); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNTT(b *testing.B) {
	c, _ := testCtx(b)
	p := uniformPoly(b, c, rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ntt[0].Forward(p)
		c.ntt[0].Inverse(p)
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	c, kp := testCtx(t)
	ct, _ := c.EncryptValues(rand.Reader, kp.PK, []uint64{7, 8, 9})
	data, err := c.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != wireHeader+8+16*c.Params.N {
		t.Fatalf("wire size = %d", len(data))
	}
	back, err := c.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := c.Decrypt(kp.SK, back)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 7 || pt[1] != 8 || pt[2] != 9 {
		t.Fatalf("round-tripped ciphertext decrypts to %v", pt[:3])
	}
	// Malformed wire data is rejected.
	if _, err := c.UnmarshalCiphertext(data[:10]); err == nil {
		t.Error("truncated ciphertext accepted")
	}
	bad := append([]byte(nil), data...)
	// Coefficient ≥ Q.
	for i := 0; i < 8; i++ {
		bad[wireHeader+8+i] = 0xff
	}
	if _, err := c.UnmarshalCiphertext(bad); err == nil {
		t.Error("out-of-range coefficient accepted")
	}
	if _, err := c.MarshalCiphertext(nil); err == nil {
		t.Error("nil ciphertext marshaled")
	}
}
