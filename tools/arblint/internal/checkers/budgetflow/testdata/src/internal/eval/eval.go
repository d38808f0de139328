// Package eval is budgetflow analyzer testdata: a package outside the
// budget-approved set that samples DP noise directly.
package eval

import mech "arboretum/tools/arblint/internal/checkers/budgetflow/testdata/src/internal/mechanism"

// Leak draws noise nobody debited from the privacy budget.
func Leak(rng mech.Rand) int64 {
	return mech.Laplace(rng, 3) // want `call to mech.Laplace outside budget-accounted packages`
}

// LeakSampleBins draws sampling randomness through a different constructor.
func LeakSampleBins(rng mech.Rand) *mech.SampleBins {
	return mech.NewSampleBins(rng, 8, 2) // want `call to mech.NewSampleBins outside budget-accounted packages`
}

// Harmless calls a non-constructor and is not flagged.
func Harmless() string {
	return mech.Describe()
}

// Annotated is the recorded exception: the directive suppresses the call on
// the next line.
func Annotated(rng mech.Rand) int64 {
	//arblint:ignore budgetflow exception with a recorded reason for analyzer testdata
	return mech.Gumbel(rng, 3)
}
