package runtime

import (
	"math"
	"testing"

	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/mpc"
	"arboretum/internal/sortition"
)

// newBareCommittee builds a committeeExec without a full deployment run, for
// direct protocol tests.
func newBareCommittee(t *testing.T, m int, seed int64) *committeeExec {
	t.Helper()
	d, err := NewDeployment(Config{N: 64, Categories: 2, CommitteeSize: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	d.spent = map[lang.Pos]float64{}
	eng, err := mpc.NewEngine(m)
	if err != nil {
		t.Fatal(err)
	}
	return &committeeExec{engine: eng, members: sortition.Committee{0, 1, 2, 3, 4}, dep: d}
}

func shareScores(e *mpc.Engine, scores []int64) []mpc.Secret {
	out := make([]mpc.Secret, len(scores))
	for i, s := range scores {
		out[i] = e.JointFixed(fixed.FromInt(s))
	}
	return out
}

// Both em variants the committee runs — exponentiate-select and Gumbel
// argmax — must follow the exponential mechanism's distribution:
// P[i] ∝ exp(ε·s_i/(2·Δ)). Each selection opens one noised index, tallied
// at ε.
func TestExponentiateSelectDistribution(t *testing.T) {
	scores := []int64{0, 2, 4}
	const (
		eps    = 1.0
		trials = 300
	)
	want := make([]float64, len(scores))
	var z float64
	for i, s := range scores {
		want[i] = math.Exp(eps * float64(s) / 2)
		z += want[i]
	}
	for i := range want {
		want[i] /= z
	}
	for _, v := range []struct {
		name string
		pick func(*committeeExec, []mpc.Secret, int64, float64) (int, error)
	}{
		{"exponentiate", (*committeeExec).exponentiateSelect},
		{"gumbel", (*committeeExec).gumbelArgmax},
	} {
		counts := make([]float64, len(scores))
		for trial := 0; trial < trials; trial++ {
			ce := newBareCommittee(t, 5, int64(trial))
			idx, err := v.pick(ce, shareScores(ce.engine, scores), 1, eps)
			if err != nil {
				t.Fatal(err)
			}
			if spent := ce.dep.spent[ce.site]; spent != eps {
				t.Fatalf("%s: one selection tallied ε = %g, want %g", v.name, spent, eps)
			}
			counts[idx]++
		}
		for i := range counts {
			got := counts[i] / trials
			// 300 trials → σ ≈ 0.03; allow 3σ plus fixed-point slack.
			if math.Abs(got-want[i]) > 0.1 {
				t.Errorf("%s: P[%d] = %.3f, theory %.3f", v.name, i, got, want[i])
			}
		}
	}
}

// gumbelArgmax at huge ε must return the true argmax deterministically.
func TestGumbelArgmaxDeterministicAtLargeEps(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ce := newBareCommittee(t, 5, seed)
		idx, err := ce.gumbelArgmax(shareScores(ce.engine, []int64{5, 500, 50}), 1, 50)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Errorf("seed %d: argmax = %d, want 1", seed, idx)
		}
	}
}

// topKSelect excludes previous winners: asking for all items returns a
// permutation.
func TestTopKSelectPermutation(t *testing.T) {
	ce := newBareCommittee(t, 5, 7)
	scores := []int64{10, 20, 30, 40}
	idxs, err := ce.topKSelect(shareScores(ce.engine, scores), nil, 4, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range idxs {
		if seen[i] {
			t.Fatalf("duplicate winner %d in %v", i, idxs)
		}
		seen[i] = true
	}
	if len(seen) != 4 {
		t.Fatalf("winners %v, want a permutation of 0..3", idxs)
	}
	// The first winner is the true max at this ε.
	if idxs[0] != 3 {
		t.Errorf("first winner = %d, want 3", idxs[0])
	}
	if _, err := ce.topKSelect(shareScores(ce.engine, scores), nil, 9, 1, 1); err == nil {
		t.Error("k > len accepted")
	}
}
