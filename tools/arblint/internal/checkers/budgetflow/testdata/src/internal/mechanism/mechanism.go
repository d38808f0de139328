// Package mechanism is budgetflow analyzer testdata: a stand-in exposing
// the noise-constructor names the real internal/mechanism exports. The
// policy table matches it by path suffix.
package mechanism

// Rand mirrors the real sampler interface shape.
type Rand interface {
	Intn(n int) int
}

// Laplace mirrors the real noise constructor's name.
func Laplace(rng Rand, scale int64) int64 { return int64(rng.Intn(1)) + scale }

// Gumbel mirrors the real noise constructor's name.
func Gumbel(rng Rand, scale int64) int64 { return int64(rng.Intn(1)) + scale }

// SampleBins mirrors the real bin-protocol window.
type SampleBins struct{ B, X, J int }

// NewSampleBins mirrors the real noise constructor's name.
func NewSampleBins(rng Rand, b, x int) *SampleBins { return &SampleBins{B: b, X: x, J: rng.Intn(b)} }

// Describe is not a noise constructor and may be called from anywhere.
func Describe() string { return "mechanism testdata" }
