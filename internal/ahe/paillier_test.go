package ahe

import (
	"crypto/rand"
	"errors"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// testKey caches a keypair: Paillier keygen is the slow part and the tests
// only need one.
var (
	keyOnce sync.Once
	key     *PrivateKey
)

func testKeyPair(t testing.TB) *PrivateKey {
	keyOnce.Do(func() {
		var err error
		key, err = GenerateKey(rand.Reader, 512)
		if err != nil {
			panic(err)
		}
	})
	return key
}

func TestGenerateKeyTooSmall(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 64); err == nil {
		t.Fatal("64-bit key accepted")
	}
}

func TestEncryptDecrypt(t *testing.T) {
	sk := testKeyPair(t)
	for _, m := range []int64{0, 1, 42, 1 << 40, -1, -999999} {
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Errorf("Decrypt(Encrypt(%d)) = %v", m, got)
		}
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(5))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(5))
	if a.C.Cmp(b.C) == 0 {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(1000))
	b, _ := sk.Encrypt(rand.Reader, big.NewInt(234))
	sum, err := sk.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sk.Decrypt(sum)
	if got.Int64() != 1234 {
		t.Fatalf("E(1000) ⊞ E(234) decrypts to %v", got)
	}
}

func TestAddPlain(t *testing.T) {
	sk := testKeyPair(t)
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(10))
	ap, err := sk.AddPlain(a, big.NewInt(32))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sk.Decrypt(ap)
	if got.Int64() != 42 {
		t.Fatalf("AddPlain: %v", got)
	}
}

// foldSum folds cts into one ciphertext with an Accumulator, the
// aggregator's fold. An empty fold has no sum.
func foldSum(pk *PublicKey, cts []*Ciphertext) (*Ciphertext, error) {
	acc := pk.NewAccumulator()
	for _, ct := range cts {
		if err := acc.Add(ct); err != nil {
			return nil, err
		}
	}
	if v := acc.Value(); v != nil {
		return v, nil
	}
	return nil, errors.New("ahe: empty sum")
}

// TestSum folds 1..20, and 145 ciphertexts of i mod 5 (an odd size), on an
// Accumulator: each sum must be the Add fold's group element and decrypt to
// the plaintexts' sum.
func TestSum(t *testing.T) {
	sk := testKeyPair(t)
	for _, c := range []struct {
		n       int64
		message func(i int64) int64
	}{
		{20, func(i int64) int64 { return i + 1 }},
		{145, func(i int64) int64 { return i % 5 }},
	} {
		var cts []*Ciphertext
		want := int64(0)
		for i := int64(0); i < c.n; i++ {
			ct, err := sk.Encrypt(rand.Reader, big.NewInt(c.message(i)))
			if err != nil {
				t.Fatal(err)
			}
			cts = append(cts, ct)
			want += c.message(i)
		}
		sum, err := foldSum(&sk.PublicKey, cts)
		if err != nil {
			t.Fatal(err)
		}
		fold := cts[0]
		for _, ct := range cts[1:] {
			if fold, err = sk.Add(fold, ct); err != nil {
				t.Fatal(err)
			}
		}
		if sum.C.Cmp(fold.C) != 0 {
			t.Fatalf("Sum of %d ciphertexts differs from the Add fold", c.n)
		}
		got, _ := sk.Decrypt(sum)
		if got.Int64() != want {
			t.Fatalf("Sum of %d = %v, want %d", c.n, got, want)
		}
	}
}

// TestSumEmpty: an Accumulator nothing was folded into, or that was reset,
// has no value.
func TestSumEmpty(t *testing.T) {
	sk := testKeyPair(t)
	acc := sk.NewAccumulator()
	if v := acc.Value(); v != nil {
		t.Fatalf("empty accumulator holds %v", v)
	}
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(1))
	if err := acc.Add(ct); err != nil {
		t.Fatal(err)
	}
	acc.Reset()
	if v := acc.Value(); v != nil {
		t.Fatalf("reset accumulator holds %v", v)
	}
}

func TestEncryptVector(t *testing.T) {
	sk := testKeyPair(t)
	vec, err := sk.EncryptVector(rand.Reader, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range vec {
		got, _ := sk.Decrypt(ct)
		want := int64(0)
		if i == 2 {
			want = 1
		}
		if got.Int64() != want {
			t.Errorf("vec[%d] = %v, want %d", i, got, want)
		}
	}
	if _, err := sk.EncryptVector(rand.Reader, 5, 5); err == nil {
		t.Error("out-of-range hot index accepted")
	}
	if _, err := sk.EncryptVector(rand.Reader, 5, -1); err == nil {
		t.Error("negative hot index accepted")
	}
}

// One-hot aggregation: the core AHE workload of the paper — sum many one-hot
// vectors and read off category counts.
func TestOneHotAggregation(t *testing.T) {
	sk := testKeyPair(t)
	const categories = 4
	counts := [categories]int64{}
	perCat := make([][]*Ciphertext, 0, 12)
	for d := 0; d < 12; d++ {
		hot := d % categories
		counts[hot]++
		vec, err := sk.EncryptVector(rand.Reader, categories, hot)
		if err != nil {
			t.Fatal(err)
		}
		perCat = append(perCat, vec)
	}
	for c := 0; c < categories; c++ {
		col := make([]*Ciphertext, len(perCat))
		for d := range perCat {
			col[d] = perCat[d][c]
		}
		sum, _ := foldSum(&sk.PublicKey, col)
		got, _ := sk.Decrypt(sum)
		if got.Int64() != counts[c] {
			t.Errorf("category %d count = %v, want %d", c, got, counts[c])
		}
	}
}

func TestDecryptRejectsBadCiphertext(t *testing.T) {
	sk := testKeyPair(t)
	if _, err := sk.Decrypt(nil); err == nil {
		t.Error("nil ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Error("zero ciphertext accepted")
	}
	if _, err := sk.Decrypt(&Ciphertext{C: new(big.Int).Set(sk.N2)}); err == nil {
		t.Error("out-of-range ciphertext accepted")
	}
}

// TestNilCiphertextOps feeds every ciphertext-taking PublicKey operation a
// nil pointer and a zero-value Ciphertext (nil C): each must return an
// error, never panic inside math/big or hand the bad operand back.
func TestNilCiphertextOps(t *testing.T) {
	sk := testKeyPair(t)
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(1))
	k := big.NewInt(1)
	ops := []struct {
		name string
		run  func(bad *Ciphertext) (*Ciphertext, error)
	}{
		{"Add left", func(bad *Ciphertext) (*Ciphertext, error) { return sk.Add(bad, ct) }},
		{"Add right", func(bad *Ciphertext) (*Ciphertext, error) { return sk.Add(ct, bad) }},
		{"AddPlain", func(bad *Ciphertext) (*Ciphertext, error) { return sk.AddPlain(bad, k) }},
		{"Sum of one", func(bad *Ciphertext) (*Ciphertext, error) { return foldSum(&sk.PublicKey, []*Ciphertext{bad}) }},
		{"Sum of many", func(bad *Ciphertext) (*Ciphertext, error) { return foldSum(&sk.PublicKey, []*Ciphertext{ct, bad, ct}) }},
	}
	operands := []struct {
		name string
		bad  *Ciphertext
	}{{"nil", nil}, {"zero value", &Ciphertext{}}}
	for _, op := range ops {
		for _, operand := range operands {
			t.Run(op.name+"/"+operand.name, func(t *testing.T) {
				got, err := op.run(operand.bad)
				if err == nil || err.Error() != "ahe: nil ciphertext" {
					t.Errorf("err = %v, want ahe: nil ciphertext", err)
				}
				if got != nil {
					t.Errorf("returned %v alongside the error", got)
				}
			})
		}
	}
}

func TestKeyReassembly(t *testing.T) {
	sk := testKeyPair(t)
	re := FromSecrets(&sk.PublicKey, sk.Lambda(), sk.Mu())
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(777))
	got, err := re.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 777 {
		t.Fatalf("reassembled key decrypted %v", got)
	}
}

// TestCiphertextBytes: a ciphertext's wire size is the width of n², fixed by
// the key, and holds every ciphertext, however short its value's minimal
// encoding.
func TestCiphertextBytes(t *testing.T) {
	sk := testKeyPair(t)
	if got := sk.CiphertextBytes(); got != 1024/8 {
		t.Fatalf("CiphertextBytes() = %d for a 512-bit key, want %d", got, 1024/8)
	}
	for i := 0; i < 16; i++ {
		ct, err := sk.Encrypt(rand.Reader, big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if n := (ct.C.BitLen() + 7) / 8; n > sk.CiphertextBytes() {
			t.Fatalf("a %d-byte ciphertext overflows the %d-byte wire size", n, sk.CiphertextBytes())
		}
	}
}

// Property: homomorphic addition matches plaintext addition.
func TestQuickHomomorphism(t *testing.T) {
	sk := testKeyPair(t)
	f := func(a, b int32) bool {
		ca, err1 := sk.Encrypt(rand.Reader, big.NewInt(int64(a)))
		cb, err2 := sk.Encrypt(rand.Reader, big.NewInt(int64(b)))
		if err1 != nil || err2 != nil {
			return false
		}
		sum, err := sk.Add(ca, cb)
		if err != nil {
			return false
		}
		got, err := sk.Decrypt(sum)
		return err == nil && got.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk := testKeyPair(b)
	m := big.NewInt(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	sk := testKeyPair(b)
	x, _ := sk.Encrypt(rand.Reader, big.NewInt(1))
	y, _ := sk.Encrypt(rand.Reader, big.NewInt(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Add(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	sk := testKeyPair(b)
	ct, _ := sk.Encrypt(rand.Reader, big.NewInt(123))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAHEPooledBuffersDoNotEscape is the ahe side of the pooling fence: a
// ciphertext returned by Encrypt or an Accumulator must be unaffected by
// later calls that reuse the pooled scratch (fbScratch, the accumulator's
// buffers).
func TestAHEPooledBuffersDoNotEscape(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	first, err := pk.Encrypt(rand.Reader, big.NewInt(11))
	if err != nil {
		t.Fatal(err)
	}
	firstWords := append([]big.Word(nil), first.C.Bits()...)
	second, err := pk.Encrypt(rand.Reader, big.NewInt(22))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := foldSum(pk, []*Ciphertext{first, second})
	if err != nil {
		t.Fatal(err)
	}
	sumWords := append([]big.Word(nil), sum.C.Bits()...)
	// Churn the pools.
	for i := 0; i < 8; i++ {
		if _, err := pk.Encrypt(rand.Reader, big.NewInt(int64(100+i))); err != nil {
			t.Fatal(err)
		}
		if _, err := foldSum(pk, []*Ciphertext{second, second}); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range firstWords {
		if first.C.Bits()[i] != w {
			t.Fatal("issued ciphertext changed under pool reuse")
		}
	}
	for i, w := range sumWords {
		if sum.C.Bits()[i] != w {
			t.Fatal("issued sum changed under pool reuse")
		}
	}
	got, err := sk.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 33 {
		t.Fatalf("sum decrypts to %v after pool churn, want 33", got)
	}
}
