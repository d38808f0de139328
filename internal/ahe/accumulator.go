package ahe

import "math/big"

// Accumulator is the pooled-scratch form of the aggregator's inner fold: a
// running homomorphic sum that reuses three big.Int buffers across every Add
// instead of allocating a fresh ciphertext per addition the way
// PublicKey.Add does. One Paillier addition is acc·ct mod n²; the
// accumulator computes the product into its own scratch and reduces with
// QuoRem straight back into the running value, so a steady-state fold
// performs zero heap allocations regardless of length. The streaming ingest
// pipeline (internal/runtime) keeps one accumulator per ciphertext cell per
// shard.
//
// An Accumulator is not safe for concurrent use. It starts empty; Set seeds
// it with a ciphertext, Add folds one in (the first Add into an empty
// accumulator just copies), and Value exports the running sum as a copy —
// mutating the accumulator afterwards never reaches it.
type Accumulator struct {
	pk  *PublicKey
	acc big.Int // running product mod n², meaningful only when set
	mul big.Int // double-width product scratch
	quo big.Int // quotient scratch for the modular reduction
	set bool
}

// NewAccumulator returns an empty accumulator folding under pk.
func (pk *PublicKey) NewAccumulator() *Accumulator {
	return &Accumulator{pk: pk}
}

// Reset empties the accumulator, keeping its scratch buffers.
func (a *Accumulator) Reset() { a.set = false }

// Add folds one ciphertext into the running sum.
func (a *Accumulator) Add(ct *Ciphertext) error {
	if err := a.pk.check(ct); err != nil {
		return err
	}
	if !a.set {
		a.acc.Set(ct.C)
		a.set = true
		return nil
	}
	a.mul.Mul(&a.acc, ct.C)
	a.quo.QuoRem(&a.mul, a.pk.N2, &a.acc)
	return nil
}

// Set makes the running sum a copy of ct — seeding a fold with partials
// exported earlier by Value.
func (a *Accumulator) Set(ct *Ciphertext) error {
	if err := a.pk.check(ct); err != nil {
		return err
	}
	a.acc.Set(ct.C)
	a.set = true
	return nil
}

// Value returns the running sum as a fresh ciphertext. It returns nil while
// the accumulator is empty.
func (a *Accumulator) Value() *Ciphertext {
	if !a.set {
		return nil
	}
	return &Ciphertext{C: new(big.Int).Set(&a.acc)}
}
