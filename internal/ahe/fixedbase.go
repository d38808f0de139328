package ahe

// Fixed-base acceleration for the r^n mod n² randomizer factor of Paillier
// encryption.
//
// The textbook scheme draws r uniform in Z_n* and pays a full |n|-bit
// exponentiation per encryption. Following the Damgård–Jurik–Nielsen
// shortened-exponent variant, we instead fix a base gn = h^n mod n² (h a
// canonical unit derived from n) and draw the randomizer as gn^x for a
// random 512-bit exponent x. The randomizer is still an n-th power, so
// decryption and the homomorphic operations are untouched; semantic security
// rests on the standard subgroup variant of the decisional composite
// residuosity assumption (see docs/KERNELS.md).
//
// Because the base is fixed, the exponentiation walks an internal/fixedbase
// comb — at most 64 Montgomery steps per encryption, 7 of them squarings,
// the last of which multiplies in g^m, so the whole ciphertext is one walk —
// and the key carries one table, built by GenerateKey and shared by every
// encryption under it. The walk runs on pooled scratch, so it allocates
// nothing (docs/KERNELS.md, "Why math/big").

import (
	"crypto/sha256"
	"math/big"

	"arboretum/internal/fixed"
	"arboretum/internal/fixedbase"
)

const fbExpBytes = 64 // 512-bit randomizer exponents

// fixedBase is immutable after newFixedBase and safe for concurrent use: the
// comb is read-only and the mutable per-call state lives in a pool of
// scratch structs.
type fixedBase struct {
	comb *fixedbase.Table // for gn = h^n mod n²

	// scratch pools the per-encryption working state: the randomizer-exponent
	// bytes, the big.Int temporaries encrypt forms its product in and the
	// comb's walk scratch.
	scratch fixed.Pool[fbScratch]
}

// fbScratch is one encryption's working state. Nothing in it survives into a
// returned ciphertext: encrypt copies its final value into the result box.
type fbScratch struct {
	exp [fbExpBytes]byte
	msg big.Int // m mod n
	gm  big.Int // 1 + msg·n
	c   big.Int // gm·gn^x mod n²
	fb  fixedbase.Scratch
}

// deriveH returns a canonical unit mod n, derived deterministically from the
// modulus by hashing (so a deserialized key rebuilds the same base). A value
// sharing a factor with n would reveal the factorization, so non-units are
// essentially impossible; the bump loop handles them anyway.
func deriveH(n *big.Int) *big.Int {
	nb := n.Bytes()
	stream := make([]byte, 0, len(nb)+sha256.Size)
	buf := make([]byte, len(nb)+1)
	copy(buf, nb)
	for ctr := 0; len(stream) < len(nb); ctr++ {
		buf[len(nb)] = byte(ctr)
		h := sha256.Sum256(buf)
		stream = append(stream, h[:]...)
	}
	hv := new(big.Int).SetBytes(stream[:len(nb)])
	hv.Mod(hv, n)
	gcd := new(big.Int)
	for {
		if hv.Sign() != 0 && gcd.GCD(nil, nil, hv, n).Cmp(one) == 0 {
			return hv
		}
		hv.Add(hv, one)
		if hv.Cmp(n) >= 0 {
			hv.SetInt64(2)
		}
	}
}

// newFixedBase precomputes the comb for gn = h^n mod n².
func newFixedBase(n, n2 *big.Int) *fixedBase {
	gn := new(big.Int).Exp(deriveH(n), n, n2)
	fb := &fixedBase{comb: fixedbase.New(gn, n2, fbExpBytes)}
	fb.scratch.New = func() *fbScratch { return new(fbScratch) }
	return fb
}
