package ahe

// Equivalence properties for the accelerated decryption and encryption
// paths: CRT decryption (keys carrying their factorization) must agree with
// the lambda/mu formula (keys reassembled via FromSecrets) on every
// ciphertext, and fixed-base encryptions must decrypt under both.

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"math/big"
	"testing"
	"testing/quick"

	"arboretum/internal/benchrand"
)

// TestDecryptCRTMatchesLambdaMu decrypts the same ciphertexts with the CRT
// path, with a FromSecrets-reassembled key (lambda/mu path) and with keys
// KeyFromPrime rebuilds from either prime factor, and requires identical
// plaintexts, including negatives. The key rebuilt from the generating
// key's own p equals it in every field.
func TestDecryptCRTMatchesLambdaMu(t *testing.T) {
	sk := testKeyPair(t)
	if sk.p == nil {
		t.Fatal("generated key lost its factorization; CRT path untested")
	}
	re := FromSecrets(&sk.PublicKey, sk.Lambda(), sk.Mu())
	if re.p != nil || re.Prime() != nil {
		t.Fatal("reassembled key claims a factorization it does not have")
	}
	if re.Equal(sk) || sk.Equal(re) {
		t.Fatal("a key without a factorization equals one with it")
	}
	fromP, err := KeyFromPrime(&sk.PublicKey, sk.Prime())
	if err != nil {
		t.Fatal(err)
	}
	if !fromP.Equal(sk) || fromP.fb != sk.fb {
		t.Fatal("KeyFromPrime(p) differs from the generating key")
	}
	fromQ, err := KeyFromPrime(&sk.PublicKey, sk.q)
	if err != nil {
		t.Fatal(err)
	}
	if fromQ.Lambda().Cmp(sk.Lambda()) != 0 || fromQ.Mu().Cmp(sk.Mu()) != 0 {
		t.Fatal("KeyFromPrime(q) derived a different λ or μ")
	}
	msgs := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(1 << 40), big.NewInt(-(1 << 40)), big.NewInt(123456789),
	}
	// A few random full-range messages as well.
	for i := 0; i < 4; i++ {
		m, err := rand.Int(rand.Reader, sk.N)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, m)
	}
	for _, m := range msgs {
		ct, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		crt, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		lm, err := re.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if crt.Cmp(lm) != 0 {
			t.Fatalf("Decrypt mismatch for m=%v: CRT %v, lambda/mu %v", m, crt, lm)
		}
		for name, k := range map[string]*PrivateKey{"KeyFromPrime(p)": fromP, "KeyFromPrime(q)": fromQ} {
			got, err := k.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(crt) != 0 {
				t.Fatalf("Decrypt mismatch for m=%v: generating key %v, %s %v", m, crt, name, got)
			}
		}
	}
}

// TestKeyFromPrimeRejectsNonFactors: 0, 1, n, n ± 1 and p + 2 are not
// proper factors of n, and KeyFromPrime refuses each with
// ErrNotFactor rather than build a key that decrypts garbage.
func TestKeyFromPrimeRejectsNonFactors(t *testing.T) {
	sk := testKeyPair(t)
	n := sk.N
	for _, v := range []*big.Int{
		big.NewInt(0), big.NewInt(1), new(big.Int).Set(n), new(big.Int).Add(n, one),
		new(big.Int).Add(sk.p, big.NewInt(2)), new(big.Int).Sub(n, one),
	} {
		if k, err := KeyFromPrime(&sk.PublicKey, v); !errors.Is(err, ErrNotFactor) || k != nil {
			t.Errorf("KeyFromPrime(%v) = %v, %v; want ErrNotFactor", v, k, err)
		}
	}
}

// TestQuickDecryptEquivalence is the randomized version over signed small
// messages: CRT and lambda/mu decryption agree on homomorphic sums too.
func TestQuickDecryptEquivalence(t *testing.T) {
	sk := testKeyPair(t)
	re := FromSecrets(&sk.PublicKey, sk.Lambda(), sk.Mu())
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
		x, err1 := sk.Decrypt(sum)
		y, err2 := re.Decrypt(sum)
		return err1 == nil && err2 == nil && x.Cmp(y) == 0 &&
			x.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestFixedBaseEncryptMatchesTextbook checks that fixed-base encryptions
// (key table present) and textbook encryptions (no table) decrypt to the
// same plaintexts under the same key — both randomizers are n-th powers, so
// the ciphertext spaces coincide.
func TestFixedBaseEncryptMatchesTextbook(t *testing.T) {
	sk := testKeyPair(t)
	if sk.fb == nil {
		t.Fatal("generated key has no fixed-base table")
	}
	bare := PublicKey{N: sk.N, N2: sk.N2} // no table: textbook path
	for _, m := range []int64{0, 1, -7, 424242} {
		ctFB, err := sk.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		ctTB, err := bare.Encrypt(rand.Reader, big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		gotFB, err := sk.Decrypt(ctFB)
		if err != nil {
			t.Fatal(err)
		}
		gotTB, err := sk.Decrypt(ctTB)
		if err != nil {
			t.Fatal(err)
		}
		if gotFB.Int64() != m || gotTB.Int64() != m {
			t.Fatalf("m=%d: fixed-base %v, textbook %v", m, gotFB, gotTB)
		}
	}
	// The two paths must still be homomorphically compatible.
	a, _ := sk.Encrypt(rand.Reader, big.NewInt(100))
	b, _ := bare.Encrypt(rand.Reader, big.NewInt(23))
	sum, err := sk.Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 123 {
		t.Fatalf("mixed-path sum decrypted to %v", got)
	}
}

// TestEncryptVectorSharedTable checks a hand-built key with no table: every
// slot takes the textbook path, and the one-hot vector still decrypts.
func TestEncryptVectorSharedTable(t *testing.T) {
	sk := testKeyPair(t)
	bare := PublicKey{N: sk.N, N2: sk.N2}
	vec, err := bare.EncryptVector(rand.Reader, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range vec {
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i == 1 {
			want = 1
		}
		if got.Int64() != want {
			t.Errorf("slot %d = %v, want %d", i, got, want)
		}
	}
}

// TestDecryptCRTAndFallback checks the two decryption configurations against
// each other and against the known plaintexts on one fresh keypair: the CRT
// path (as generated) and the FromSecrets lambda/mu path.
func TestDecryptCRTAndFallback(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	fs := FromSecrets(pk, sk.Lambda(), sk.Mu())
	cases := []struct{ m, want *big.Int }{
		{big.NewInt(0), big.NewInt(0)},
		{big.NewInt(1), big.NewInt(1)},
		{big.NewInt(424242), big.NewInt(424242)},
		{new(big.Int).Sub(pk.N, one), big.NewInt(-1)}, // n−1 decrypts as −1
	}
	for _, tc := range cases {
		ct, err := pk.Encrypt(rand.Reader, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(tc.want) != 0 {
			t.Fatalf("CRT: got %v, want %v", got, tc.want)
		}
		got, err = fs.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(tc.want) != 0 {
			t.Fatalf("FromSecrets: got %v, want %v", got, tc.want)
		}
	}
}

// TestFixedBaseFallbackMatchesMontgomery is the fence across the removal of
// the hand-written Montgomery kernel: on a fixed 512-bit modulus and fixed
// exponent streams, the math/big table walk must equal gn^x mod n² computed
// from first principles, and must reproduce the SHA-256 digests of what the
// Montgomery table walk returned for the same inputs at the last commit that
// carried it (759ba63; captured there by a throwaway test, see CHANGES.md
// PR 19). GenerateKey is not reproducible from a seeded reader
// (crypto/rand.Prime deliberately consumes a random extra byte), so the
// primes are literals.
func TestFixedBaseFallbackMatchesMontgomery(t *testing.T) {
	p, _ := new(big.Int).SetString("dcf6b8cc6ef1628d3d4ea2a64ee79d0bfbfa9400e674becde2e581ebfa6c190d", 16)
	q, _ := new(big.Int).SetString("f706c2a71cc81e8f4c60bb76d6b3545ac39b15d50ccbc29a2afee5a138570b39", 16)
	n := new(big.Int).Mul(p, q)
	n2 := new(big.Int).Mul(n, n)
	if !p.ProbablyPrime(20) || !q.ProbablyPrime(20) || n.BitLen() != 512 {
		t.Fatal("literal modulus is not a 512-bit product of two primes")
	}
	montgomery := []string{ // sha256(randomizer.Bytes()) for benchrand.New(0..3)
		"fca56f12e9ea0360af52b6662eea17c543f0977970e800501e39f04545fb087e",
		"e006d32b06fd5c4d207ca0534647af16ba33f10b5ac295da07425d2c38ca7ca0",
		"12fe584c374572377c37666a61979945f8672ebe36584df00de687fc08fabc55",
		"87f5c0ca8cece0fc6f21687c0a2845867ceb0664bb579ba49e339e6e0f0c490e",
	}
	fb := newFixedBase(n, n2)
	gn := new(big.Int).Exp(deriveH(n), n, n2)
	s := fb.scratch.Get()
	defer fb.scratch.Put(s)
	var rn big.Int
	for seed, want := range montgomery {
		if _, err := io.ReadFull(benchrand.New(uint64(seed)), s.exp[:]); err != nil {
			t.Fatal(err)
		}
		fb.comb.Exp(&rn, &s.fb, s.exp[:])
		// The comb reads nibble i of the stream as the coefficient of 16^i,
		// so x is the 64 stream bytes as a little-endian integer.
		var xb [fbExpBytes]byte
		if _, err := benchrand.New(uint64(seed)).Read(xb[:]); err != nil {
			t.Fatal(err)
		}
		for i, j := 0, len(xb)-1; i < j; i, j = i+1, j-1 {
			xb[i], xb[j] = xb[j], xb[i]
		}
		x := new(big.Int).SetBytes(xb[:])
		if ref := new(big.Int).Exp(gn, x, n2); rn.Cmp(ref) != 0 {
			t.Fatalf("seed %d: table walk %v, gn^x mod n² %v", seed, &rn, ref)
		}
		sum := sha256.Sum256(rn.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("seed %d: table walk digest %s, Montgomery walk's was %s", seed, got, want)
		}
	}
	// Encrypt through the table and decrypt under the same modulus.
	lambda := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	mu := new(big.Int).ModInverse(lambda, n)
	pk := &PublicKey{N: n, N2: n2}
	msg := big.NewInt(123456789)
	ct, err := pk.encrypt(rand.Reader, msg, fb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromSecrets(pk, lambda, mu).Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(msg) != 0 {
		t.Fatalf("fixed-base encryption decrypted to %v", got)
	}
}

// Equal reports whether sk and x are the same key down to every value
// Decrypt reads: n, λ, μ and each CRT value. A key without a factorization
// (FromSecrets) equals only another without one.
func (sk *PrivateKey) Equal(x *PrivateKey) bool {
	same := func(a, b *big.Int) bool { return (a == nil) == (b == nil) && (a == nil || a.Cmp(b) == 0) }
	return same(sk.N, x.N) && same(sk.N2, x.N2) && same(sk.lambda, x.lambda) && same(sk.mu, x.mu) &&
		same(sk.p, x.p) && same(sk.q, x.q) && same(sk.p2, x.p2) && same(sk.q2, x.q2) &&
		same(sk.pm1, x.pm1) && same(sk.qm1, x.qm1) && same(sk.hp, x.hp) && same(sk.hq, x.hq) &&
		same(sk.pInvQ, x.pInvQ)
}
