package ahe

import (
	"errors"
	"math/big"
)

// Accumulator is the pooled-scratch form of the aggregator's inner fold: a
// running homomorphic sum that reuses three big.Int buffers across every Add
// instead of allocating a fresh ciphertext per addition the way
// PublicKey.Add does. One Paillier addition is acc·ct mod n²; the
// accumulator computes the product into its own scratch and reduces with
// QuoRem straight back into the running value, so a steady-state fold
// performs zero heap allocations regardless of length. The streaming ingest
// pipeline (internal/runtime) keeps one accumulator per ciphertext cell per
// shard; Sum uses the same machinery for its chunk folds.
//
// An Accumulator is not safe for concurrent use. It starts empty; Add folds
// a ciphertext in (the first Add just copies), and Value/Snapshot export the
// current running sum. The exported ciphertexts are copies — mutating the
// accumulator afterwards never reaches them.
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

// Empty reports whether nothing has been folded in since the last Reset.
func (a *Accumulator) Empty() bool { return !a.set }

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

// Set makes the running sum a copy of ct — restoring a checkpoint exported
// earlier with Snapshot or Value.
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

// Snapshot copies the running sum into dst (reusing dst's limbs), for
// checkpoint buffers that rotate without allocating. dst must be non-nil
// with a non-nil C; the accumulator must not be empty.
func (a *Accumulator) Snapshot(dst *Ciphertext) error {
	if !a.set {
		return errors.New("ahe: snapshot of empty accumulator")
	}
	if dst == nil || dst.C == nil {
		return errors.New("ahe: nil snapshot destination")
	}
	dst.C.Set(&a.acc)
	return nil
}

// Fill writes the running sum's fixed-width big-endian bytes into buf
// (zero-padded on the left) and returns buf. buf must hold at least
// ⌈n².bitlen/8⌉ bytes; the fixed width makes repeated hashing of partials
// allocation-free and unambiguous. The accumulator must not be empty.
func (a *Accumulator) Fill(buf []byte) []byte {
	return a.acc.FillBytes(buf)
}
