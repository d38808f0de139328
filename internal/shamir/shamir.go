// Package shamir implements Shamir secret sharing over a prime field.
//
// Arboretum's committees run honest-majority MPC over Shamir shares
// (Section 6: SPDZ-wise Shamir in MP-SPDZ), transfer secrets between
// committees via verifiable secret redistribution (Section 5.2), and
// reconstruct outputs by Lagrange interpolation (Section 5.5). This package
// provides the share/reconstruct core used by internal/mpc and internal/vsr.
package shamir

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// Share is one party's share: the evaluation of the sharing polynomial at
// point X (a nonzero field element, conventionally the 1-based party index).
type Share struct {
	X int64
	Y *big.Int
}

// Field is a prime field Z_p.
type Field struct {
	P *big.Int
}

// NewField returns the field Z_p. It returns an error if p is not an odd
// prime (probabilistic check).
func NewField(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 || p.Bit(0) == 0 || !p.ProbablyPrime(20) {
		return nil, errors.New("shamir: modulus must be an odd prime")
	}
	return &Field{P: new(big.Int).Set(p)}, nil
}

// MustField is NewField for compile-time-known primes; it panics on error.
func MustField(p *big.Int) *Field {
	f, err := NewField(p)
	if err != nil {
		panic(err)
	}
	return f
}

// Rand returns a uniformly random field element.
func (f *Field) Rand() (*big.Int, error) {
	return rand.Int(rand.Reader, f.P)
}

// Polynomial is a sharing polynomial with Coeffs[0] = secret.
type Polynomial struct {
	Coeffs []*big.Int
	field  *Field
}

// ErrSecretRange is returned for a secret outside [0, p): reducing it would
// share a different value, which no share holder could notice.
var ErrSecretRange = errors.New("shamir: secret outside the field")

// RandomPolynomial returns a degree-(t−1) polynomial with constant term
// secret, so any t shares reconstruct and t−1 reveal nothing. A secret
// outside [0, p) is refused with ErrSecretRange.
func (f *Field) RandomPolynomial(secret *big.Int, t int) (*Polynomial, error) {
	if t < 1 {
		return nil, errors.New("shamir: threshold must be at least 1")
	}
	if secret.Sign() < 0 || secret.Cmp(f.P) >= 0 {
		return nil, ErrSecretRange
	}
	coeffs := make([]*big.Int, t)
	coeffs[0] = new(big.Int).Set(secret)
	for i := 1; i < t; i++ {
		c, err := f.Rand()
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	return &Polynomial{Coeffs: coeffs, field: f}, nil
}

// Eval evaluates the polynomial at x by Horner's rule.
func (p *Polynomial) Eval(x int64) *big.Int {
	bx := big.NewInt(x)
	acc := new(big.Int)
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, bx)
		acc.Add(acc, p.Coeffs[i])
		acc.Mod(acc, p.field.P)
	}
	return acc
}

// Split shares secret among n parties with reconstruction threshold t
// (any t of the n shares recover the secret). Party i receives the share at
// x = i+1. A secret outside [0, p) is refused with ErrSecretRange.
func (f *Field) Split(secret *big.Int, n, t int) ([]Share, error) {
	if n < t {
		return nil, fmt.Errorf("shamir: n=%d < t=%d", n, t)
	}
	if t < 1 {
		return nil, errors.New("shamir: threshold must be at least 1")
	}
	poly, err := f.RandomPolynomial(secret, t)
	if err != nil {
		return nil, err
	}
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		x := int64(i + 1)
		shares[i] = Share{X: x, Y: poly.Eval(x)}
	}
	return shares, nil
}

// Reconstruct recovers the secret from at least t shares by Lagrange
// interpolation at 0. Duplicate X coordinates are rejected.
func (f *Field) Reconstruct(shares []Share, t int) (*big.Int, error) {
	if len(shares) < t {
		return nil, fmt.Errorf("shamir: need %d shares, have %d", t, len(shares))
	}
	use := shares[:t]
	seen := map[int64]bool{}
	for _, s := range use {
		if s.X == 0 {
			return nil, errors.New("shamir: share at x=0")
		}
		if seen[s.X] {
			return nil, fmt.Errorf("shamir: duplicate share x=%d", s.X)
		}
		seen[s.X] = true
	}
	secret := new(big.Int)
	for i, si := range use {
		li := f.lagrangeAtZero(use, i)
		term := new(big.Int).Mul(si.Y, li)
		secret.Add(secret, term)
		secret.Mod(secret, f.P)
	}
	return secret, nil
}

// LagrangeCoefficients returns the Lagrange basis coefficients at 0 for the
// given evaluation points, so that secret = Σ coeffs[i]·y_i. Used by the MPC
// engine to reconstruct without re-deriving per call.
func (f *Field) LagrangeCoefficients(xs []int64) ([]*big.Int, error) {
	shares := make([]Share, len(xs))
	seen := map[int64]bool{}
	for i, x := range xs {
		if x == 0 || seen[x] {
			return nil, fmt.Errorf("shamir: bad evaluation point x=%d", x)
		}
		seen[x] = true
		shares[i] = Share{X: x}
	}
	out := make([]*big.Int, len(xs))
	for i := range xs {
		out[i] = f.lagrangeAtZero(shares, i)
	}
	return out, nil
}

// lagrangeAtZero computes ℓ_i(0) = Π_{j≠i} x_j / (x_j − x_i) mod p.
func (f *Field) lagrangeAtZero(shares []Share, i int) *big.Int {
	num := big.NewInt(1)
	den := big.NewInt(1)
	xi := big.NewInt(shares[i].X)
	for j, sj := range shares {
		if j == i {
			continue
		}
		xj := big.NewInt(sj.X)
		num.Mul(num, xj)
		num.Mod(num, f.P)
		d := new(big.Int).Sub(xj, xi)
		den.Mul(den, d)
		den.Mod(den, f.P)
	}
	den.ModInverse(den, f.P)
	num.Mul(num, den)
	num.Mod(num, f.P)
	return num
}
