package bgv

import "math/big"

// decrypt is the correctness oracle every test checks against; no
// production path decrypts (the cost model times key generation, Encode,
// Encrypt, Add and Mul: costmodel.CalibrateRing). It recovers the plaintext
// coefficient vector: per-prime phase c0 + c1·s, CRT reconstruction to the
// full modulus, centered lift, then reduction mod T, and allocates freely.
func (c *Context) decrypt(sk *SecretKey, ct *Ciphertext) (Plaintext, error) {
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

// subMod is a − b mod q for a, b < q, for the reference transforms.
func subMod(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}
