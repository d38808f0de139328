// Package ahe is secretflow analyzer testdata: a stand-in exposing the
// private-key accessors the real internal/ahe exports. Their results are
// plain *big.Int values, so only the policy table's SecretSources marks
// them secret.
package ahe

import (
	"errors"
	"math/big"
)

// PrivateKey mirrors the real key's factorization-derived values.
type PrivateKey struct {
	p, lambda, mu *big.Int
}

// ErrNotFactor mirrors the real typed refusal: it names no value.
var ErrNotFactor = errors.New("ahe: not a proper factor of the modulus")

// Prime returns a copy of the prime factor p.
func (sk *PrivateKey) Prime() *big.Int { return new(big.Int).Set(sk.p) }

// Lambda returns a copy of λ.
func (sk *PrivateKey) Lambda() *big.Int { return new(big.Int).Set(sk.lambda) }

// Mu returns a copy of μ.
func (sk *PrivateKey) Mu() *big.Int { return new(big.Int).Set(sk.mu) }
