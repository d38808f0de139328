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
// λ-only key material held by a five-member committee.
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

// assertKeyMatches holds the key the committee reconstructs from its λ shares
// to the generating key: μ derived from λ equals sk.Mu(), and both keys
// decrypt 0, ±1, ±(n/2 − 1) and a random plaintext to the same value.
func assertKeyMatches(t *testing.T, stage string, sk *ahe.PrivateKey, km *keyMaterial) {
	t.Helper()
	got, err := km.reconstructKey()
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if got.Mu().Cmp(sk.Mu()) != 0 {
		t.Fatalf("%s: derived μ differs from the generating key's", stage)
	}
	n := sk.PublicKey.N
	edge := new(big.Int).Sub(new(big.Int).Rsh(n, 1), big.NewInt(1))
	random, err := rand.Int(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	pts := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), edge, new(big.Int).Neg(edge), random}
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
	}
}

// TestLambdaOnlyKey: the committee holds shares of λ alone, and the key it
// reconstructs decrypts like the generating key after key generation, after
// a plain hand-off, and after a hand-off whose first attempt lost three of
// five dealers (dealer@…, docs/FAULTS.md) and re-dealt.
func TestLambdaOnlyKey(t *testing.T) {
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
