package bgv

// Reference (textbook) negacyclic transform: pre-multiply the coefficients
// by powers of ψ, run a cyclic NTT with ω = ψ² (explicit bit-reversal
// permutation, divide-and-round mulMod in every butterfly), and undo on the
// way back. This is the formulation the optimized Forward/Inverse in ntt.go
// replaced; it is retained verbatim so randomized tests can assert the
// division-free kernels match it bit for bit — Forward(a)[i] equals
// referenceForward(a)[bitRevs[i]] (the evaluation domain moved to
// bit-reversed order), and the Inverse/referenceInverse outputs are
// identical. It is not used on any production path.

// referenceCyclicNTT runs an in-place iterative Cooley-Tukey transform using
// the given root powers (omega for forward, omegaI for inverse).
func (t *nttTables) referenceCyclicNTT(a []uint64, roots []uint64) {
	n, q := t.n, t.q
	for i := 0; i < n; i++ {
		j := t.bitRevs[i]
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		step := n / length
		half := length / 2
		for start := 0; start < n; start += length {
			for k := 0; k < half; k++ {
				w := roots[k*step]
				u := a[start+k]
				v := mulMod(a[start+k+half], w, q)
				a[start+k] = addMod(u, v, q)
				a[start+k+half] = subMod(u, v, q)
			}
		}
	}
}

// referenceForward transforms a coefficient-domain polynomial to the
// evaluation domain in standard order (in place).
func (t *nttTables) referenceForward(a []uint64) {
	for i := range a {
		a[i] = mulMod(a[i], t.psi[i], t.q)
	}
	t.referenceCyclicNTT(a, t.omega)
}

// referenceInverse transforms back to the coefficient domain (in place).
func (t *nttTables) referenceInverse(a []uint64) {
	t.referenceCyclicNTT(a, t.omegaI)
	for i := range a {
		a[i] = mulMod(mulMod(a[i], t.nInv, t.q), t.psiInv[i], t.q)
	}
}
