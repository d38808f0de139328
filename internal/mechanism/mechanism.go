// Package mechanism holds the differential-privacy building blocks Arboretum
// plans around (Section 2.1): the Laplace and Gumbel noise samplers, the two
// instantiations of the exponential mechanism (EMVariant), the bin protocol
// and the secrecy-of-the-sample amplification bound. The mechanisms
// themselves — Laplace noising, exponentiate-select, Gumbel argmax and top-k
// peeling — run as committee MPC in internal/runtime, drawing their noise
// from these samplers.
//
// Samplers work in the Q30.16 fixed-point arithmetic of internal/fixed,
// matching the paper's MP-SPDZ sfix programs (Section 6): base-2
// exponentials per Ilvento, and tails clipped to the representable range
// (which is what adds the small δ the paper mentions).
package mechanism

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"math"
	"math/big"
	//arblint:ignore randsource simulation/test sampler only; deployments draw noise via CryptoRand
	"math/rand"

	"arboretum/internal/fixed"
)

// Rand is the randomness source for the samplers. Deterministic seeding is
// used by tests and the simulation runtime; a deployment would draw from the
// committee's joint randomness.
type Rand interface {
	// Uniform returns a uniform value in (0, 1) as fixed point, never 0.
	Uniform() fixed.Fixed
	// Intn returns a uniform integer in [0, n).
	Intn(n int) int
}

// mathRand adapts math/rand; the MPC committee's joint coin replaces this in
// a deployment.
//
//arblint:ignore randsource adapter for the deliberately deterministic simulation stream
type mathRand struct{ r *rand.Rand }

// NewRand returns a seeded randomness source for tests and the simulation
// runtime, where bit-identical replay across runs and worker counts is the
// contract (docs/CONCURRENCY.md). Deployments draw noise via CryptoRand.
//
//arblint:ignore randsource deterministic seeding is the simulation replay contract
func NewRand(seed int64) Rand { return &mathRand{r: rand.New(rand.NewSource(seed))} }

func (m *mathRand) Uniform() fixed.Fixed {
	for {
		f := fixed.FromFloat(m.r.Float64())
		if f > 0 {
			return f
		}
	}
}

func (m *mathRand) Intn(n int) int { return m.r.Intn(n) }

// CryptoRand returns a Rand drawing from crypto/rand — the sampler a real
// deployment must use for committee noise, where a predictable stream voids
// the DP guarantee (the runtime selects it via Config.SecureNoise). It
// panics on system entropy failure: the condition is unrecoverable, and
// continuing with degraded noise would silently spend the privacy budget on
// no protection.
func CryptoRand() Rand { return cryptoRand{} }

type cryptoRand struct{}

func (cryptoRand) Uniform() fixed.Fixed {
	bound := big.NewInt(int64(fixed.One))
	for {
		v, err := crand.Int(crand.Reader, bound)
		if err != nil {
			panic(fmt.Sprintf("mechanism: system entropy failure: %v", err))
		}
		if f := fixed.Fixed(v.Int64()); f > 0 {
			return f
		}
	}
}

func (cryptoRand) Intn(n int) int {
	v, err := crand.Int(crand.Reader, big.NewInt(int64(n)))
	if err != nil {
		panic(fmt.Sprintf("mechanism: system entropy failure: %v", err))
	}
	return int(v.Int64())
}

// Laplace draws Lap(scale) noise: the paper's laplace(s/ε) for a sensitivity-s
// sum (Section 2.1). Sampled by inverse CDF in fixed point.
func Laplace(rng Rand, scale fixed.Fixed) fixed.Fixed {
	if scale <= 0 {
		return 0
	}
	// u uniform in (0,1); x = -scale * sign(u-1/2) * ln(1 - 2|u - 1/2|).
	u := rng.Uniform()
	half := fixed.One >> 1
	d := u.Sub(fixed.Fixed(half))
	neg := d < 0
	if neg {
		d = d.Neg()
	}
	inner := fixed.One.Sub(d.Add(d))
	if inner <= 0 {
		inner = 1 // clip to the smallest representable positive value
	}
	x := fixed.Ln(inner).Mul(scale).Neg()
	if neg {
		x = x.Neg()
	}
	return x
}

// Gumbel draws Gumbel(scale) noise: −scale · ln(−ln u). Used by the em
// variant on the right of Figure 4 (noise 2·sens/ε per score).
func Gumbel(rng Rand, scale fixed.Fixed) fixed.Fixed {
	if scale <= 0 {
		return 0
	}
	u := rng.Uniform()
	l := fixed.Ln(u).Neg() // −ln u > 0
	if l <= 0 {
		l = 1
	}
	return fixed.Ln(l).Mul(scale).Neg()
}

// EMVariant selects one of the two instantiations of the em operator
// (Figure 4); the planner tries both and scores each.
type EMVariant int

const (
	// EMExponentiate is the textbook CDF-inversion form (Figure 4, left):
	// exponentiate scores, draw r in [0, Σ), return the bracketing index.
	EMExponentiate EMVariant = iota
	// EMGumbel adds Gumbel noise to every score and returns the argmax
	// (Figure 4, right).
	EMGumbel
)

func (v EMVariant) String() string {
	switch v {
	case EMExponentiate:
		return "exponentiate"
	case EMGumbel:
		return "gumbel"
	default:
		return fmt.Sprintf("EMVariant(%d)", int(v))
	}
}

// AmplifyBySampling returns the effective ε after running an (ε, 0)-DP query
// on a φ-sample with secrecy of the sample (Section 2.1):
// ε' = ln(1 + φ(e^ε − 1)).
func AmplifyBySampling(epsilon, phi float64) (float64, error) {
	if phi <= 0 || phi > 1 {
		return 0, fmt.Errorf("mechanism: sampling rate %g out of (0,1]", phi)
	}
	if epsilon <= 0 {
		return 0, errors.New("mechanism: epsilon must be positive")
	}
	return math.Log1p(phi * (math.Expm1(epsilon))), nil
}

// SampleBinCount is the bin protocol's b: the number of bins a device hides
// its input among (the paper uses the plaintext slots of a standard
// ciphertext).
const SampleBinCount = 16

// SampleWindow is the bin protocol's x for a requested sampling rate φ: the
// number of the SampleBinCount bins the committee decrypts, round(φ·b)
// clamped to [1, b]. The rate the protocol realizes is x/b, not φ, and x/b
// is the rate amplification by sampling must be charged at.
func SampleWindow(phi float64) int {
	return min(max(int(phi*SampleBinCount+0.5), 1), SampleBinCount)
}

// SampleBins implements the bin protocol from Section 6: given b bins and a
// target sample size fraction x/b, the committee draws a starting bin j and
// decrypts only bins j..j+x−1 (mod b). Devices independently place their
// input in a uniform bin.
type SampleBins struct {
	B int // total bins in a ciphertext
	X int // bins sampled
	J int // committee's secret starting bin
}

// NewSampleBins draws the committee's secret window start.
func NewSampleBins(rng Rand, b, x int) (*SampleBins, error) {
	if b <= 0 || x <= 0 || x > b {
		return nil, fmt.Errorf("mechanism: invalid bins b=%d x=%d", b, x)
	}
	return &SampleBins{B: b, X: x, J: rng.Intn(b)}, nil
}

// Included reports whether a bin falls inside the sampled window.
func (s *SampleBins) Included(bin int) bool {
	d := bin - s.J
	if d < 0 {
		d += s.B
	}
	return d < s.X
}
