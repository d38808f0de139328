package mechanism

import (
	"math"
	"testing"

	"arboretum/internal/fixed"
)

func TestLaplaceMoments(t *testing.T) {
	rng := NewRand(1)
	scale := fixed.FromFloat(2.0)
	const n = 20000
	var sum, sumAbs float64
	for i := 0; i < n; i++ {
		x := Laplace(rng, scale).Float()
		sum += x
		sumAbs += math.Abs(x)
	}
	mean := sum / n
	meanAbs := sumAbs / n // E|Lap(b)| = b
	if math.Abs(mean) > 0.1 {
		t.Errorf("Laplace mean = %g, want ~0", mean)
	}
	if math.Abs(meanAbs-2.0) > 0.15 {
		t.Errorf("Laplace E|x| = %g, want ~2", meanAbs)
	}
}

func TestLaplaceZeroScale(t *testing.T) {
	rng := NewRand(1)
	if got := Laplace(rng, 0); got != 0 {
		t.Errorf("Laplace(0) = %v", got)
	}
	if got := Laplace(rng, fixed.FromInt(-1)); got != 0 {
		t.Errorf("Laplace(-1) = %v", got)
	}
}

func TestGumbelMoments(t *testing.T) {
	rng := NewRand(2)
	scale := fixed.FromFloat(1.0)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += Gumbel(rng, scale).Float()
	}
	mean := sum / n
	const gamma = 0.5772156649 // E[Gumbel(1)] = Euler–Mascheroni
	if math.Abs(mean-gamma) > 0.1 {
		t.Errorf("Gumbel mean = %g, want ~%g", mean, gamma)
	}
}

// The Gumbel sampler must realise the exponential mechanism the way the
// committee's Gumbel argmax uses it: argmax_i(s_i + Gumbel(2·Δ/ε)) selects i
// with P[i] ∝ exp(ε·s_i / (2·Δ)). Check the empirical distribution of that
// argmax, in fixed point, against the exact one.
func TestExponentialDistributionMatchesTheory(t *testing.T) {
	scores := []int64{0, 4, 8, 12}
	const (
		eps    = 0.5
		sens   = 1
		trials = 20000
	)
	want := make([]float64, len(scores))
	var z float64
	for i, s := range scores {
		want[i] = math.Exp(eps * float64(s) / (2 * sens))
		z += want[i]
	}
	for i := range want {
		want[i] /= z
	}
	rng := NewRand(11)
	scale := fixed.FromFloat(2 * sens / eps)
	counts := make([]float64, len(scores))
	for trial := 0; trial < trials; trial++ {
		best := 0
		var bestVal fixed.Fixed
		for i, s := range scores {
			v := fixed.FromInt(s).Add(Gumbel(rng, scale))
			if i == 0 || v > bestVal {
				best, bestVal = i, v
			}
		}
		counts[best]++
	}
	for i := range counts {
		got := counts[i] / trials
		// Sampling error at 20k trials is ≈ 0.01; allow 3σ plus the
		// fixed-point quantization slack.
		if math.Abs(got-want[i]) > 0.02 {
			t.Errorf("P[%d] = %.3f, theory %.3f", i, got, want[i])
		}
	}
}

func TestEMVariantString(t *testing.T) {
	if EMExponentiate.String() != "exponentiate" || EMGumbel.String() != "gumbel" {
		t.Error("EMVariant names wrong")
	}
	if EMVariant(9).String() == "" {
		t.Error("unknown variant String empty")
	}
}

func TestAmplifyBySampling(t *testing.T) {
	// ε' = ln(1 + φ(e^ε − 1)); for ε ≤ 1 and small φ, ε' ≈ φ·ε·(e−1)... the
	// paper's approximation is ε' ≲ 2φ/ε form; check exact formula instead.
	got, err := AmplifyBySampling(1.0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log1p(0.01 * (math.E - 1))
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AmplifyBySampling = %g, want %g", got, want)
	}
	// Amplification always strengthens: ε' < ε for φ < 1.
	if got >= 1.0 {
		t.Errorf("amplified ε %g not smaller than 1.0", got)
	}
	// φ = 1 is a no-op.
	same, _ := AmplifyBySampling(0.7, 1.0)
	if math.Abs(same-0.7) > 1e-12 {
		t.Errorf("φ=1 changed ε: %g", same)
	}
}

func TestAmplifyErrors(t *testing.T) {
	if _, err := AmplifyBySampling(1, 0); err == nil {
		t.Error("φ=0 accepted")
	}
	if _, err := AmplifyBySampling(1, 1.5); err == nil {
		t.Error("φ>1 accepted")
	}
	if _, err := AmplifyBySampling(0, 0.5); err == nil {
		t.Error("ε=0 accepted")
	}
}

func TestSampleBins(t *testing.T) {
	rng := NewRand(9)
	sb, err := NewSampleBins(rng, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly X bins are included.
	count := 0
	for b := 0; b < sb.B; b++ {
		if sb.Included(b) {
			count++
		}
	}
	if count != sb.X {
		t.Errorf("included %d bins, want %d", count, sb.X)
	}
	// The window wraps correctly.
	if !sb.Included(sb.J) {
		t.Error("window start not included")
	}
	if sb.Included((sb.J + sb.X) % sb.B) {
		t.Error("bin just past window included")
	}
}

func TestSampleBinsDeviceUniform(t *testing.T) {
	rng := NewRand(10)
	sb, _ := NewSampleBins(rng, 4, 2)
	counts := make([]int, 4)
	const trials = 8000
	for i := 0; i < trials; i++ {
		counts[rng.Intn(sb.B)]++
	}
	for b, c := range counts {
		if c < trials/4-trials/20 || c > trials/4+trials/20 {
			t.Errorf("bin %d chosen %d/%d times, want ~%d", b, c, trials, trials/4)
		}
	}
}

func TestSampleBinsErrors(t *testing.T) {
	rng := NewRand(1)
	if _, err := NewSampleBins(rng, 0, 1); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := NewSampleBins(rng, 4, 5); err == nil {
		t.Error("x>b accepted")
	}
	if _, err := NewSampleBins(rng, 4, 0); err == nil {
		t.Error("x=0 accepted")
	}
}

// TestSampleWindow pins the rounding from a requested rate to whole bins: a
// window is never empty and never wider than SampleBinCount.
func TestSampleWindow(t *testing.T) {
	for phi, want := range map[float64]int{
		0.001: 1, 0.01: 1, 0.05: 1, 0.1: 2, 0.25: 4, 0.5: 8, 0.97: 16, 1: 16,
	} {
		if got := SampleWindow(phi); got != want {
			t.Errorf("SampleWindow(%g) = %d, want %d", phi, got, want)
		}
	}
}

func BenchmarkLaplace(b *testing.B) {
	rng := NewRand(1)
	scale := fixed.FromFloat(1.5)
	for i := 0; i < b.N; i++ {
		_ = Laplace(rng, scale)
	}
}

// Laplace tail probabilities: P[|X| > t·b] = e^{-t} for Lap(b).
func TestLaplaceTails(t *testing.T) {
	rng := NewRand(12)
	scale := fixed.FromFloat(1.0)
	const trials = 30000
	exceed2, exceed4 := 0, 0
	for i := 0; i < trials; i++ {
		x := Laplace(rng, scale).Float()
		if math.Abs(x) > 2 {
			exceed2++
		}
		if math.Abs(x) > 4 {
			exceed4++
		}
	}
	p2 := float64(exceed2) / trials
	p4 := float64(exceed4) / trials
	if math.Abs(p2-math.Exp(-2)) > 0.02 {
		t.Errorf("P[|X|>2b] = %.4f, theory %.4f", p2, math.Exp(-2))
	}
	if math.Abs(p4-math.Exp(-4)) > 0.01 {
		t.Errorf("P[|X|>4b] = %.4f, theory %.4f", p4, math.Exp(-4))
	}
}
