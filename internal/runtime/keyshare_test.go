package runtime

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/sortition"
)

// keyShareFixture is a deployment carrying plan, a generated key and its
// prime-only key material held by a five-member committee.
func keyShareFixture(t *testing.T, plan *faults.Plan) (*Deployment, *ahe.PrivateKey, *keyMaterial) {
	t.Helper()
	d, err := NewDeployment(Config{N: 64, Categories: 2, CommitteeSize: 5, Seed: 1, KeyBits: 256, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ahe.GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	km, err := shareKey(sk, sortition.Committee{0, 1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	return d, sk, km
}

// assertKeyMatches holds the key the committee reconstructs from its p
// shares to the generating key: the same n, p, λ and μ (every CRT value
// derives from n and p), and the same decryption of a batch — 0, ±1,
// ±(n/2 − 1), a random plaintext and ±2^63 — bit for bit, with decryptInt64
// refusing the same plaintexts with errDecryptRange under both keys.
func assertKeyMatches(t *testing.T, stage string, sk *ahe.PrivateKey, km *keyMaterial) {
	t.Helper()
	got, err := km.reconstructKey()
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	same := func(a, b *big.Int) bool { return a != nil && b != nil && a.Cmp(b) == 0 }
	if !same(got.N, sk.N) || !same(got.Prime(), sk.Prime()) || !same(got.Lambda(), sk.Lambda()) || !same(got.Mu(), sk.Mu()) {
		t.Fatalf("%s: reconstructed key differs from the generating key", stage)
	}
	n := sk.PublicKey.N
	edge := new(big.Int).Sub(new(big.Int).Rsh(n, 1), big.NewInt(1))
	random, err := rand.Int(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	two63 := new(big.Int).Lsh(big.NewInt(1), 63)
	pts := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), edge, new(big.Int).Neg(edge), random,
		two63, new(big.Int).Neg(new(big.Int).Add(two63, big.NewInt(1)))}
	refused := 0
	for _, m := range pts {
		ct, err := sk.PublicKey.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Decrypt(ct)
		if err != nil {
			t.Fatalf("%s: reconstructed key: %v", stage, err)
		}
		if have.Cmp(want) != 0 {
			t.Fatalf("%s: reconstructed key decrypts %v to %v, the generating key to %v", stage, m, have, want)
		}
		wantV, wantErr := decryptInt64(sk, ct)
		haveV, haveErr := decryptInt64(got, ct)
		if haveV != wantV || !errors.Is(haveErr, wantErr) {
			t.Fatalf("%s: decryptInt64 of %v: reconstructed %d, %v; generating %d, %v", stage, m, haveV, haveErr, wantV, wantErr)
		}
		if errors.Is(haveErr, errDecryptRange) {
			refused++
		}
	}
	if refused < 2 {
		t.Fatalf("%s: %d plaintexts refused with errDecryptRange, want at least ±2^63's", stage, refused)
	}
}

// TestPrimeOnlyKey: the committee holds shares of the prime p alone, and
// the key it reconstructs is the generating key after key generation, after
// a plain hand-off, and after a hand-off whose first attempt lost three of
// five dealers (dealer@…, docs/FAULTS.md) and re-dealt.
func TestPrimeOnlyKey(t *testing.T) {
	next := sortition.Committee{5, 6, 7, 8, 9}

	d, sk, km := keyShareFixture(t, nil)
	assertKeyMatches(t, "after keygen", sk, km)
	if err := km.handoff(d, next); err != nil {
		t.Fatal(err)
	}
	assertKeyMatches(t, "after hand-off", sk, km)

	plan, err := faults.Parse("seed=1,dealer@0.0.0,dealer@0.0.1,dealer@0.0.2")
	if err != nil {
		t.Fatal(err)
	}
	d, sk, km = keyShareFixture(t, plan)
	if err := km.handoff(d, next); err != nil {
		t.Fatal(err)
	}
	if m := d.Metrics; m.DealerFailures != 3 || m.VSRRedeals != 1 || m.VSRTransfers != 1 {
		t.Fatalf("dealer failures %d, re-deals %d, transfers %d; want 3, 1, 1",
			m.DealerFailures, m.VSRRedeals, m.VSRTransfers)
	}
	assertKeyMatches(t, "after re-deal", sk, km)
}

// TestNonFactorShareFailsClosed: shares of a value that is not a proper
// factor of n — p + 2, 1, n itself — reconstruct to no key: reconstructKey
// and both decryption paths fail with ahe.ErrNotFactor.
func TestNonFactorShareFailsClosed(t *testing.T) {
	_, sk, km := keyShareFixture(t, nil)
	ce := newBareCommittee(t, 5, 1)
	ct, err := km.pub.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	n := km.pub.N
	for _, v := range []*big.Int{new(big.Int).Add(sk.Prime(), big.NewInt(2)), big.NewInt(1), n} {
		shares, err := km.group.Field().Split(v, len(km.holder), km.threshold)
		if err != nil {
			t.Fatal(err)
		}
		km.primeShares = shares
		if _, err := km.reconstructKey(); !errors.Is(err, ahe.ErrNotFactor) {
			t.Errorf("reconstructKey: got %v, want ErrNotFactor", err)
		}
		if _, err := ce.decryptToShares(km, []*ahe.Ciphertext{ct}); !errors.Is(err, ahe.ErrNotFactor) {
			t.Errorf("decryptToShares: got %v, want ErrNotFactor", err)
		}
		if _, err := ce.decryptScalar(km, ct); !errors.Is(err, ahe.ErrNotFactor) {
			t.Errorf("decryptScalar: got %v, want ErrNotFactor", err)
		}
	}
}

// TestKeyBits2048 is the regression for keys whose λ outgrew the 1535-bit
// sharing field: the committee used to share λ, which the field silently
// reduced, so a 2048-bit deployment decrypted garbage and refused every
// release with errDecryptRange. Its 1024-bit prime fits, so a Laplace count
// releases; a KeyBits whose prime does not fit is refused up front.
func TestKeyBits2048(t *testing.T) {
	d := smallDeployment(t, 16, 2, func(c *Config) {
		c.KeyBits = 2048
		c.Data = func(int) int { return 0 }
	})
	src := `sketch = sum(db);
noised = laplace(sketch[0], 1.0);
c = declassify(noised);
output(c);`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[0].Float(); got < -24 || got > 56 { // 16 ± generous Laplace(1) tail
		t.Errorf("noised count = %g, want ~16", got)
	}
	if _, err := NewDeployment(Config{N: 16, Categories: 2, KeyBits: 3072}); !errors.Is(err, ErrKeyTooLarge) {
		t.Errorf("KeyBits 3072: got %v, want ErrKeyTooLarge", err)
	}
	if _, err := NewDeployment(Config{N: 16, Categories: 2, KeyBits: 3068}); err != nil {
		t.Errorf("KeyBits 3068 (1534-bit primes): %v", err)
	}
}

// TestDecryptOutOfInt64FailsClosed: both committee decryption paths refuse
// a plaintext outside int64 with the same error. decryptScalar, which
// laplaceRelease releases through, used to truncate it silently.
func TestDecryptOutOfInt64FailsClosed(t *testing.T) {
	_, _, km := keyShareFixture(t, nil)
	ce := newBareCommittee(t, 5, 1)
	encrypt := func(m *big.Int) *ahe.Ciphertext {
		ct, err := km.pub.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	two63 := new(big.Int).Lsh(big.NewInt(1), 63)
	ct := encrypt(two63)
	if _, err := ce.decryptToShares(km, []*ahe.Ciphertext{ct}); !errors.Is(err, errDecryptRange) {
		t.Errorf("decryptToShares(Enc(2^63)): got %v, want errDecryptRange", err)
	}
	if v, err := ce.decryptScalar(km, ct); !errors.Is(err, errDecryptRange) {
		t.Errorf("decryptScalar(Enc(2^63)) = %d, %v; want errDecryptRange", v, err)
	}
	// The largest int64 still decrypts.
	max := new(big.Int).Sub(two63, big.NewInt(1))
	if v, err := ce.decryptScalar(km, encrypt(max)); err != nil || v != max.Int64() {
		t.Errorf("decryptScalar(Enc(2^63 − 1)) = %d, %v; want %d", v, err, max.Int64())
	}
}
