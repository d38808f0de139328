package runtime

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/mechanism"
	"arboretum/internal/sortition"
	"arboretum/internal/vsr"
)

// keyShareFixture is a deployment carrying plan, a generated key of keyBits
// and its prime-only key material held by a five-member committee.
func keyShareFixture(t *testing.T, keyBits int, plan *faults.Plan) (*Deployment, *ahe.PrivateKey, *keyMaterial) {
	t.Helper()
	d, err := NewDeployment(Config{N: 64, Categories: 2, CommitteeSize: 5, Seed: 1, KeyBits: keyBits, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := ahe.GenerateKey(rand.Reader, keyBits)
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
// five dealers (dealer@…, docs/FAULTS.md) and re-dealt. It runs with p in
// one limb (KeyBits 256) and in two (KeyBits 1,040, a 520-bit p): the
// dealer faults, re-deals and transfers count per hand-off, not per limb.
func TestPrimeOnlyKey(t *testing.T) {
	next := sortition.Committee{5, 6, 7, 8, 9}
	for _, c := range []struct{ keyBits, limbs int }{{256, 1}, {1040, 2}} {
		t.Run(fmt.Sprintf("keybits%d", c.keyBits), func(t *testing.T) {
			d, sk, km := keyShareFixture(t, c.keyBits, nil)
			if len(km.primeShares) != c.limbs {
				t.Fatalf("p shared in %d limbs, want %d", len(km.primeShares), c.limbs)
			}
			assertKeyMatches(t, "after keygen", sk, km)
			if err := km.handoff(d, next); err != nil {
				t.Fatal(err)
			}
			assertKeyMatches(t, "after hand-off", sk, km)

			plan, err := faults.Parse("seed=1,dealer@0.0.0,dealer@0.0.1,dealer@0.0.2")
			if err != nil {
				t.Fatal(err)
			}
			d, sk, km = keyShareFixture(t, c.keyBits, plan)
			if err := km.handoff(d, next); err != nil {
				t.Fatal(err)
			}
			if m := d.Metrics; m.DealerFailures != 3 || m.VSRRedeals != 1 || m.VSRTransfers != 1 {
				t.Fatalf("dealer failures %d, re-deals %d, transfers %d; want 3, 1, 1",
					m.DealerFailures, m.VSRRedeals, m.VSRTransfers)
			}
			assertKeyMatches(t, "after re-deal", sk, km)
		})
	}
}

// TestKeyLimbs: splitLimbs cuts p into ⌈bits/limbBits⌉ limbs, each below
// the sharing field's Q, and joinLimbs restores p, for the smallest and the
// largest p of each width around the limb boundaries. It also guards the
// limb count of the key sizes that matter: the primes of the default
// KeyBits 512 (256 bits) and of 1,024 (512 bits) fit one limb, so no
// benchmark shape goes multi-limb unnoticed, and the supported maximum,
// KeyBits 3,068 (1,534 bits), takes three.
func TestKeyLimbs(t *testing.T) {
	q := vsr.DefaultGroup().Q
	one := big.NewInt(1)
	for _, c := range []struct{ bits, limbs int }{{1, 1}, {256, 1}, {511, 1}, {512, 1}, {513, 2}, {1024, 2}, {1534, 3}} {
		smallest := new(big.Int).Lsh(one, uint(c.bits-1))
		largest := new(big.Int).Sub(new(big.Int).Lsh(one, uint(c.bits)), one)
		for _, p := range []*big.Int{smallest, largest} {
			limbs := splitLimbs(p)
			if len(limbs) != c.limbs {
				t.Errorf("%d-bit p: %d limbs, want %d", c.bits, len(limbs), c.limbs)
			}
			for l, limb := range limbs {
				if limb.Sign() < 0 || limb.Cmp(q) >= 0 {
					t.Errorf("%d-bit p: limb %d outside Z_Q", c.bits, l)
				}
			}
			if got := joinLimbs(limbs); got.Cmp(p) != 0 {
				t.Errorf("%d-bit p: joined limbs give %x, want %x", c.bits, got, p)
			}
		}
	}
	if limbs := splitLimbs(new(big.Int)); len(limbs) != 1 || limbs[0].Sign() != 0 {
		t.Errorf("splitLimbs(0) = %v, want one zero limb", limbs)
	}
}

// TestNonFactorShareFailsClosed: shares of a value that is not a proper
// factor of n — p + 2, 1, n itself — reconstruct to no key: reconstructKey
// and both decryption paths fail with ahe.ErrNotFactor.
func TestNonFactorShareFailsClosed(t *testing.T) {
	_, sk, km := keyShareFixture(t, 256, nil)
	ce := newBareCommittee(t, 5, 1)
	ct, err := km.pub.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	n := km.pub.N
	for _, v := range []*big.Int{new(big.Int).Add(sk.Prime(), big.NewInt(2)), big.NewInt(1), n} {
		shares, err := splitKey(km.group, v, len(km.holder), km.threshold)
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

// TestKeyBits2048 is the regression for keys whose λ outgrew the sharing
// field: the committee used to share λ, which the field silently reduced,
// so a 2048-bit deployment decrypted garbage and refused every release with
// errDecryptRange. Its 1024-bit prime is shared in two 512-bit limbs, each
// below the 513-bit Q, so a Laplace count releases; a KeyBits past the
// supported range (1,534-bit primes, three limbs) is refused up front.
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

// TestKeyBitsRange checks that NewDeployment refuses, with ErrKeyTooLarge,
// every key size ahe.GenerateKeyFor cannot make: below 128 bits, where it
// refuses, and odd, where no two primes of KeyBits/2 bits with their top two
// bits set multiply to KeyBits bits and the first Run would search forever.
func TestKeyBitsRange(t *testing.T) {
	for _, bits := range []int{-512, 64, 126, 127, 129, 257, 513, 3067} {
		if _, err := NewDeployment(Config{N: 16, Categories: 2, KeyBits: bits}); !errors.Is(err, ErrKeyTooLarge) {
			t.Errorf("KeyBits %d: got %v, want ErrKeyTooLarge", bits, err)
		}
	}
	for _, bits := range []int{0, 128, 130, 514} {
		if _, err := NewDeployment(Config{N: 16, Categories: 2, KeyBits: bits}); err != nil {
			t.Errorf("KeyBits %d: %v", bits, err)
		}
	}
}

// TestKeyEncryptions pins the encryptions a query key's table is sized for,
// unsampled and sampled, at three deployment shapes of 512-bit keys: N rows
// of ⌈cells/72⌉ ciphertexts (⌈cells/42⌉ at 2,048 devices, whose counts need
// 12 bits each), one re-encryption per cell, and a sampled query's zero per
// category. A sampled row has 16 bins of C cells. The row ciphertexts are
// checked against the codec a real key builds.
func TestKeyEncryptions(t *testing.T) {
	sk, err := ahe.GenerateKey(rand.Reader, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n, c               int
		unsampled, sampled int
	}{
		{96, 8, 96 + 8, 96*2 + 128 + 8},          // gateway-closed's shape
		{100, 32, 100 + 32, 100*8 + 512 + 32},    // 32 categories
		{2048, 16, 2048 + 16, 2048*7 + 256 + 16}, // collect-wide's shape
	} {
		d, err := NewDeployment(Config{N: tc.n, Categories: tc.c, CommitteeSize: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			sampled bool
			cells   int
			want    int
		}{
			{false, tc.c, tc.unsampled},
			{true, mechanism.SampleBinCount * tc.c, tc.sampled},
		} {
			got := d.keyEncryptions(q.sampled)
			if got != q.want {
				t.Errorf("N %d, C %d, sampled %v: %d encryptions, want %d", tc.n, tc.c, q.sampled, got, q.want)
			}
			codec, err := sk.PublicKey.NewPacking(tc.n, q.cells)
			if err != nil {
				t.Fatal(err)
			}
			zeros := 0
			if q.sampled {
				zeros = tc.c
			}
			if built := tc.n*codec.Ciphertexts() + q.cells + zeros; got != built {
				t.Errorf("N %d, C %d, sampled %v: %d encryptions, the codec makes %d", tc.n, tc.c, q.sampled, got, built)
			}
		}
	}
}

// TestDecryptOutOfInt64FailsClosed: both committee decryption paths refuse
// a plaintext outside int64 with the same error. decryptScalar, which
// laplaceRelease releases through, used to truncate it silently.
func TestDecryptOutOfInt64FailsClosed(t *testing.T) {
	_, _, km := keyShareFixture(t, 256, nil)
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
