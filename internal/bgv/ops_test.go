package bgv

import (
	"errors"
	"math/big"

	"arboretum/internal/parallel"
)

// The scheme's operations that no production path runs: the cost model times
// key generation, Encode, Encrypt, Add and Mul (costmodel.CalibrateRing), and
// nothing else calls into this package. Decrypt is the correctness oracle
// every test checks against; the rest are the scheme's other homomorphic
// operations, kept with the tests that pin their behaviour.

// Decrypt recovers the plaintext coefficient vector: per-prime phase
// c0 + c1·s, CRT reconstruction to the full modulus, centered lift, then
// reduction mod T. Decryption is off the hot path and allocates freely.
func (c *Context) Decrypt(sk *SecretKey, ct *Ciphertext) (Plaintext, error) {
	if err := c.check(ct); err != nil {
		return nil, err
	}
	n := c.n
	phase := make([]uint64, c.l*n)
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		cs := c.polyMulRow(li, c.row(ct.C1, li), c.row(sk.S, li))
		prow, c0row := c.row(phase, li), c.row(ct.C0, li)
		for i := 0; i < n; i++ {
			prow[i] = addMod(c0row[i], cs[i], q)
		}
	}
	out := make(Plaintext, n)
	t := c.Params.T
	tBig := new(big.Int).SetUint64(t)
	acc := new(big.Int)
	term := new(big.Int)
	for i := 0; i < n; i++ {
		// x = Σ_l ((x_l·(Q/q_l)^{-1}) mod q_l)·(Q/q_l) mod Q.
		acc.SetUint64(0)
		for li := 0; li < c.l; li++ {
			q := c.Params.Qi[li]
			xi := mulMod(phase[li*n+i], c.qHatInv[li], q)
			term.SetUint64(xi)
			term.Mul(term, c.qHat[li])
			acc.Add(acc, term)
		}
		acc.Mod(acc, c.qBig)
		// Centered lift: values above Q/2 represent small negatives.
		if acc.Cmp(c.qHalf) > 0 {
			acc.Sub(acc, c.qBig)
		}
		acc.Mod(acc, tBig) // Mod is Euclidean: the result is already in [0, t)
		out[i] = acc.Uint64()
	}
	return out, nil
}

// Sub homomorphically subtracts.
func (c *Context) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := c.check(a, b); err != nil {
		return nil, err
	}
	out := c.newCiphertext()
	n := c.n
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		o0, o1 := c.row(out.C0, li), c.row(out.C1, li)
		a0, a1 := c.row(a.C0, li), c.row(a.C1, li)
		b0, b1 := c.row(b.C0, li), c.row(b.C1, li)
		for i := 0; i < n; i++ {
			o0[i] = subMod(a0[i], b0[i], q)
			o1[i] = subMod(a1[i], b1[i], q)
		}
	}
	return out, nil
}

// AddPlain adds an encoded plaintext to a ciphertext. m's coefficients are
// below T, hence already reduced in every prime's lane.
func (c *Context) AddPlain(a *Ciphertext, m Poly) (*Ciphertext, error) {
	if err := c.check(a); err != nil {
		return nil, err
	}
	if len(m) != c.n {
		return nil, errPlainDegree
	}
	out := c.newCiphertext()
	copy(out.C1, a.C1)
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		o0, a0 := c.row(out.C0, li), c.row(a.C0, li)
		for i := range o0 {
			o0[i] = addMod(a0[i], m[i], q)
		}
	}
	return out, nil
}

// MulPlain multiplies a ciphertext by an encoded plaintext polynomial
// (negacyclic convolution in coefficient encoding; scalar for degree-0 m).
func (c *Context) MulPlain(a *Ciphertext, m Poly) (*Ciphertext, error) {
	if err := c.check(a); err != nil {
		return nil, err
	}
	if len(m) != c.n {
		return nil, errPlainDegree
	}
	out := c.newCiphertext()
	for li := 0; li < c.l; li++ {
		copy(c.row(out.C0, li), c.polyMulRow(li, c.row(a.C0, li), m))
		copy(c.row(out.C1, li), c.polyMulRow(li, c.row(a.C1, li), m))
	}
	return out, nil
}

// MulScalar multiplies by a public integer scalar.
func (c *Context) MulScalar(a *Ciphertext, k uint64) (*Ciphertext, error) {
	if err := c.check(a); err != nil {
		return nil, err
	}
	kk := k % c.Params.T
	out := c.newCiphertext()
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		o0, o1 := c.row(out.C0, li), c.row(out.C1, li)
		a0, a1 := c.row(a.C0, li), c.row(a.C1, li)
		for i := range o0 {
			o0[i] = mulMod(a0[i], kk, q)
			o1[i] = mulMod(a1[i], kk, q)
		}
	}
	return out, nil
}

// minParallelSum is the ciphertext count below which Sum stays sequential.
const minParallelSum = 32

// sumRange folds addition sequentially over a non-empty slice into one
// freshly allocated accumulator ciphertext instead of allocating a fresh
// ciphertext per Add — the same addMod in the same order, two allocations per
// range.
func (c *Context) sumRange(cts []*Ciphertext) (*Ciphertext, error) {
	if err := c.check(cts...); err != nil {
		return nil, err
	}
	if len(cts) == 1 {
		return cts[0], nil
	}
	acc := c.newCiphertext()
	copy(acc.C0, cts[0].C0)
	copy(acc.C1, cts[0].C1)
	n := c.n
	for _, ct := range cts[1:] {
		for li := 0; li < c.l; li++ {
			q := c.Params.Qi[li]
			a0, a1 := c.row(acc.C0, li), c.row(acc.C1, li)
			b0, b1 := c.row(ct.C0, li), c.row(ct.C1, li)
			for i := 0; i < n; i++ {
				a0[i] = addMod(a0[i], b0[i], q)
				a1[i] = addMod(a1[i], b1[i], q)
			}
		}
	}
	return acc, nil
}

// Sum folds Add over ciphertexts. Large sums fold in parallel chunks whose partials are combined in index order;
// coefficient-wise addition mod q_l is associative and commutative, so the
// result is bit-identical to the sequential fold at any worker count.
func (c *Context) Sum(cts []*Ciphertext) (*Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("bgv: empty sum")
	}
	w := parallel.Workers(0)
	if w > 1 && len(cts) >= minParallelSum {
		chunk := (len(cts) + w - 1) / w
		nChunks := (len(cts) + chunk - 1) / chunk
		partials, err := parallel.Map(nil, nChunks, w, func(ci int) (*Ciphertext, error) {
			lo := ci * chunk
			hi := lo + chunk
			if hi > len(cts) {
				hi = len(cts)
			}
			return c.sumRange(cts[lo:hi])
		})
		if err != nil {
			return nil, err
		}
		return c.sumRange(partials)
	}
	return c.sumRange(cts)
}

func subMod(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}
