package bgv

// Golden tests pinning the one-prime ring (TestParams: L = 1, q_1 = Q) to
// the single-prime implementation the RNS ring replaced. That implementation
// was specified to be BIT-IDENTICAL to the RNS ring at L = 1 — same
// randomness consumption, same draw order, same exact modular arithmetic —
// and a word-level comparison held the two together. The literals below are
// SHA-256 digests of the words the single-prime Context produced (keys,
// a ciphertext, a relinearized product, a decryption) at the
// last commit that had it, captured by running these same inputs through it
// in a scratch checkout. Same seed ⇒ same bits is therefore pinned across
// that deletion: any divergence in sampling, keygen, encryption,
// or multiplication changes a digest.
//
// The CRT half checks the reconstruction identities the multi-prime decoder
// rests on: qHat/qHatInv are a valid CRT basis, and interpolation round-trips
// residue vectors at the q_i boundaries.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	"sync"
	"testing"

	"arboretum/internal/benchrand"
)

// Digests of the single-prime Context's output (see the file comment).
const (
	goldenSecretKey = "8706a599252e2848ee9257c7b7c537edc97e6ee3333c1826a4f809ba29a6c499" // SK.S
	goldenPublicKey = "d0eafadf516226e09dfee7eb68b9789485ead7b2682423eadc6aa03949be5345" // PK.A ‖ PK.B
	goldenRelinKey  = "bd88f3a2c02cd589ae4a8930305c9db4c86db8675acd498d45492641b0ce6b3f" // A[0] ‖ B[0] ‖ … ‖ A[5] ‖ B[5]
	goldenEncrypt   = "acec515dc70c97f2c19486a2790b4e1d7ce4bc2a7e6e3026967e7a5e50a1fc9f" // C0 ‖ C1
	goldenMul       = "9a5ad2e3cceb466e22aca599141ae7269028a00f52cad6c525992ff2a659ef54" // C0 ‖ C1
	goldenMulPlain  = "2c4725e793403cd9bc235c6116fbb5b448f4c4617f15b93594a0fbd1bd13ba36" // decrypt(product)
	goldenDecryptCt = "29c13b2ae0e27ffb0869e3cf9c9b6d17a4118c1c240515e29f4e16c9ed76ac98" // C0 ‖ C1
	goldenDecrypt   = "fea097eaf403174654afc57762cff2db40f063593678565b01be0a8a3bab926f" // plaintext words
)

// digestWords hashes the little-endian 8-byte encoding of the concatenated
// word slices.
func digestWords(parts ...[]uint64) string {
	var buf []byte
	for _, p := range parts {
		for _, w := range p {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

func wantDigest(t *testing.T, what, want string, parts ...[]uint64) {
	t.Helper()
	if got := digestWords(parts...); got != want {
		t.Fatalf("%s: digest %s, want %s (the single-prime implementation's)", what, got, want)
	}
}

var (
	equivOnce sync.Once
	equivErr  error
	equivCtx  *Context
	equivKeys *KeyPair
)

// equivRing builds the one-prime ring and the keys every golden starts from.
func equivRing(t *testing.T) (*Context, *KeyPair) {
	t.Helper()
	equivOnce.Do(func() {
		equivCtx, equivErr = NewContext(TestParams)
		if equivErr != nil {
			return
		}
		equivKeys, equivErr = equivCtx.GenerateKeys(benchrand.New(0xA11CE))
	})
	if equivErr != nil {
		t.Fatal(equivErr)
	}
	return equivCtx, equivKeys
}

// encryptSeeded encrypts values with the randomness stream benchrand.New(seed).
func encryptSeeded(t *testing.T, c *Context, pk *PublicKey, seed uint64, values []uint64) *Ciphertext {
	t.Helper()
	ct, err := c.EncryptValues(benchrand.New(seed), pk, values)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestRNSSinglePrimeKeysBitExact(t *testing.T) {
	c, kp := equivRing(t)
	wantDigest(t, "secret key", goldenSecretKey, kp.SK.S)
	wantDigest(t, "public key", goldenPublicKey, kp.PK.A, kp.PK.B)
	if c.totalDigits != 6 {
		t.Fatalf("L=1 gadget has %d digits, want 6 (60 bits in base 2^10)", c.totalDigits)
	}
	var rlk [][]uint64
	for i := range kp.RLK.A {
		rlk = append(rlk, kp.RLK.A[i], kp.RLK.B[i])
	}
	wantDigest(t, "relin key", goldenRelinKey, rlk...)
}

func TestRNSSinglePrimeEncryptBitExact(t *testing.T) {
	c, kp := equivRing(t)
	values := []uint64{3, 1, 4, 1, 5, 9, 2, 6, c.Params.T - 1}
	ct := encryptSeeded(t, c, kp.PK, 42, values)
	wantDigest(t, "encrypt", goldenEncrypt, ct.C0, ct.C1)
	// The uncached-key path (a hand-built key with no NTT cache) must encrypt
	// to the same words as the cached path.
	bare := encryptSeeded(t, c, &PublicKey{A: kp.PK.A, B: kp.PK.B}, 42, values)
	wantDigest(t, "uncached encrypt", goldenEncrypt, bare.C0, bare.C1)
}

func TestRNSSinglePrimeMulBitExact(t *testing.T) {
	c, kp := equivRing(t)
	a := encryptSeeded(t, c, kp.PK, 7, []uint64{6, 7})
	b := encryptSeeded(t, c, kp.PK, 8, []uint64{8, 9})
	prod, err := c.Mul(a, b, kp.RLK)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest(t, "mul", goldenMul, prod.C0, prod.C1)
	pt, err := c.decrypt(kp.SK, prod)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest(t, "decrypted product", goldenMulPlain, pt)
	if pt[0] != 48 || pt[1] != 6*9+7*8 {
		t.Fatalf("product slots: got %v, want [48 110]", pt[:2])
	}
}

func TestRNSSinglePrimeDecryptBitExact(t *testing.T) {
	c, kp := equivRing(t)
	// Coefficients spanning the full plaintext range, including the T−1
	// boundary where the centered lift changes sign.
	values := make([]uint64, c.Params.N)
	rng := benchrand.New(99)
	buf := make([]byte, 8)
	for i := range values {
		if _, err := rng.Read(buf); err != nil {
			t.Fatal(err)
		}
		values[i] = (uint64(buf[0]) | uint64(buf[1])<<8 | uint64(buf[2])<<16) % c.Params.T
	}
	ct := encryptSeeded(t, c, kp.PK, 5, values)
	wantDigest(t, "ciphertext", goldenDecryptCt, ct.C0, ct.C1)
	pt, err := c.decrypt(kp.SK, ct)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest(t, "decrypt", goldenDecrypt, pt)
	for i := range pt {
		if pt[i] != values[i] {
			t.Fatalf("slot %d: got %d, want %d", i, pt[i], values[i])
		}
	}
}

// TestRNSCRTBasisIdentities checks the interpolation basis the decoder uses:
// g_l = qHat_l·qHatInv_l satisfies g_l ≡ 1 (mod q_l) and g_l ≡ 0 (mod q_m)
// for m ≠ l. These identities are also what lets relin keygen place the
// s²-term only in row l with no big-int arithmetic.
func TestRNSCRTBasisIdentities(t *testing.T) {
	ctx, _ := testRNSCtx(t)
	for l, ql := range ctx.Params.Qi {
		g := new(big.Int).Mul(ctx.qHat[l], new(big.Int).SetUint64(ctx.qHatInv[l]))
		for m, qm := range ctx.Params.Qi {
			got := new(big.Int).Mod(g, new(big.Int).SetUint64(qm)).Uint64()
			want := uint64(0)
			if m == l {
				want = 1
			}
			if got != want {
				t.Fatalf("basis g_%d mod q_%d = %d, want %d", l, m, got, want)
			}
		}
		if new(big.Int).Mul(ctx.qHat[l], new(big.Int).SetUint64(ql)).Cmp(ctx.qBig) != 0 {
			t.Fatalf("qHat_%d · q_%d ≠ Q", l, l)
		}
	}
}

// TestRNSCRTReconstructionRoundTrip interpolates residue vectors back to
// Z_Q with the decoder's formula and checks against big.Int arithmetic,
// driving the q_i boundary cases explicitly: 0, 1, q_l−1 in a single lane,
// Q−1, Q/2 and Q/2+1 (the centered-lift split), and random values.
func TestRNSCRTReconstructionRoundTrip(t *testing.T) {
	ctx, _ := testRNSCtx(t)
	reconstruct := func(res []uint64) *big.Int {
		acc := new(big.Int)
		term := new(big.Int)
		for l := range ctx.Params.Qi {
			xi := mulMod(res[l], ctx.qHatInv[l], ctx.Params.Qi[l])
			term.SetUint64(xi)
			term.Mul(term, ctx.qHat[l])
			acc.Add(acc, term)
		}
		return acc.Mod(acc, ctx.qBig)
	}
	residues := func(x *big.Int) []uint64 {
		res := make([]uint64, len(ctx.Params.Qi))
		m := new(big.Int)
		for l, q := range ctx.Params.Qi {
			res[l] = m.Mod(x, new(big.Int).SetUint64(q)).Uint64()
		}
		return res
	}
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(ctx.qBig, big.NewInt(1)),
		new(big.Int).Set(ctx.qHalf),
		new(big.Int).Add(ctx.qHalf, big.NewInt(1)),
	}
	// Each prime's own boundary: x = q_l − 1 is the largest single-lane
	// residue, and x = q_l wraps lane l to zero while the others see q_l.
	for _, q := range ctx.Params.Qi {
		cases = append(cases,
			new(big.Int).SetUint64(q-1),
			new(big.Int).SetUint64(q),
			new(big.Int).Mul(new(big.Int).SetUint64(q), new(big.Int).SetUint64(q)),
		)
	}
	rng := benchrand.New(123)
	buf := make([]byte, 16)
	for i := 0; i < 32; i++ {
		if _, err := rng.Read(buf); err != nil {
			t.Fatal(err)
		}
		x := new(big.Int).SetBytes(buf)
		cases = append(cases, x.Mod(x, ctx.qBig))
	}
	for i, x := range cases {
		if got := reconstruct(residues(x)); got.Cmp(x) != 0 {
			t.Fatalf("case %d: reconstructed %v, want %v", i, got, x)
		}
	}
}
