package ahe

// Fixed-base acceleration for the r^n mod n² randomizer factor of Paillier
// encryption.
//
// The textbook scheme draws r uniform in Z_n* and pays a full |n|-bit
// exponentiation per encryption. Following the Damgård–Jurik–Nielsen
// shortened-exponent variant, we instead fix a base gn = h^n mod n² (h a
// canonical unit derived from n) and draw the randomizer as gn^x for a
// random 512-bit exponent x. The randomizer is still an n-th power, so
// decryption, the homomorphic operations, and the wire format are all
// untouched; semantic security rests on the standard subgroup variant of
// the decisional composite residuosity assumption (see docs/KERNELS.md).
//
// Because the base is fixed, the exponentiation uses a comb of precomputed
// window powers — entry (i, j) = gn^(j·16^i) — so one encryption costs at
// most 128 modular multiplications and no squarings, and the table is shared
// across every encryption under the key (EncryptVector's per-slot
// encryptions in particular). The table and the walk are math/big values:
// each step is one Mul into pooled scratch and one QuoRem back into the
// accumulator, so a walk allocates nothing (docs/KERNELS.md, "Why math/big").

import (
	"crypto/sha256"
	"io"
	"math/big"

	"arboretum/internal/fixed"
)

const (
	fbWindowBits = 4
	fbExpBytes   = 64 // 512-bit randomizer exponents
	fbWindows    = fbExpBytes * 8 / fbWindowBits
	fbRowLen     = (1 << fbWindowBits) - 1 // nonzero digit values per window
)

// fixedBase is immutable after newFixedBase and safe for concurrent use: the
// table is read-only and the mutable per-call state lives in a pool of
// scratch structs.
type fixedBase struct {
	n2 *big.Int

	// table[i][j-1] = gn^(j·16^i) mod n².
	table [][]*big.Int

	// scratch pools the per-encryption working state: the randomizer-exponent
	// bytes and the big.Int temporaries encrypt folds its product in.
	scratch fixed.Pool[fbScratch]
}

// fbScratch is one encryption's working state. Nothing in it survives into a
// returned ciphertext: encrypt copies its final value into the result box.
type fbScratch struct {
	exp [fbExpBytes]byte
	msg big.Int // m mod n
	gm  big.Int // 1 + msg·n
	rn  big.Int // randomizer r^n mod n²
	mul big.Int // double-width product gm·rn
	quo big.Int // quotient scratch for the final reduction
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

// newFixedBase precomputes the window-power table for gn = h^n mod n².
// Each window's powers are fifteen multiplications by the previous entry,
// and the last entry (gn^(15·16^i)) times the window base is exactly the
// next window's base, so no squarings are needed anywhere.
func newFixedBase(n, n2 *big.Int) *fixedBase {
	base := new(big.Int).Exp(deriveH(n), n, n2)
	fb := &fixedBase{n2: n2, table: make([][]*big.Int, fbWindows)}
	g := base
	for i := 0; i < fbWindows; i++ {
		row := make([]*big.Int, fbRowLen)
		cur := g
		for j := range row {
			row[j] = cur
			next := new(big.Int).Mul(cur, g)
			cur = next.Mod(next, n2)
		}
		fb.table[i] = row
		g = cur // g^16: the next window's base
	}
	fb.scratch.New = func() *fbScratch { return new(fbScratch) }
	return fb
}

// randomPowerInto draws a fresh randomizer gn^x mod n² into s.rn, with x a
// uniform 512-bit exponent read from random: one table-entry multiply per
// nonzero 4-bit digit of x, ~120 modular multiplications in expectation, all
// on s's scratch.
func (fb *fixedBase) randomPowerInto(random io.Reader, s *fbScratch) error {
	if _, err := io.ReadFull(random, s.exp[:]); err != nil {
		return err
	}
	acc := s.rn.SetInt64(1)
	for i := 0; i < fbWindows; i++ {
		d := fb.expDigit(s, i)
		if d != 0 {
			s.mul.Mul(acc, fb.table[i][d-1])
			s.quo.QuoRem(&s.mul, fb.n2, acc)
		}
	}
	return nil
}

// expDigit extracts 4-bit window i of the drawn exponent.
func (fb *fixedBase) expDigit(s *fbScratch, i int) byte {
	d := s.exp[i>>1]
	if i&1 == 0 {
		return d & 0x0f
	}
	return d >> 4
}
