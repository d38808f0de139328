package mechanism

import (
	"testing"

	"arboretum/internal/fixed"
)

// TestCryptoRandUniform checks the production sampler's contract: values in
// (0, 1) as fixed point, never zero.
func TestCryptoRandUniform(t *testing.T) {
	rng := CryptoRand()
	for i := 0; i < 200; i++ {
		u := rng.Uniform()
		if u <= 0 || u >= fixed.One {
			t.Fatalf("Uniform() = %v, want in (0, %v)", u, fixed.One)
		}
	}
}

func TestCryptoRandIntn(t *testing.T) {
	rng := CryptoRand()
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		v := rng.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn(5) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("Intn(5) returned a single value over 200 draws: %v", seen)
	}
}

// TestCryptoRandDrivesSamplers checks the secure source plugs into the
// samplers the committee noise is drawn from.
func TestCryptoRandDrivesSamplers(t *testing.T) {
	rng := CryptoRand()
	for name, sample := range map[string]func(Rand, fixed.Fixed) fixed.Fixed{"Laplace": Laplace, "Gumbel": Gumbel} {
		nonzero := false
		for i := 0; i < 32 && !nonzero; i++ {
			nonzero = sample(rng, fixed.One) != 0
		}
		if !nonzero {
			t.Errorf("%s with CryptoRand returned 0 in 32 draws", name)
		}
	}
}
