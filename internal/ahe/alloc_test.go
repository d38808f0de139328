//go:build !race

package ahe

// Allocation-regression gates for the Paillier hot paths, the ahe half of
// the zero-alloc discipline (docs/KERNELS.md): encryption rides the pooled
// fixed-base scratch and a single result box, the additive fold reuses the
// accumulator's big.Int receivers, and Sum draws its accumulator from a
// pool. The ceilings are the measured steady-state counts with no slack;
// math/big reuses a receiver's limb array once it has grown to size, so
// after warmup these paths do not touch the heap beyond the result values.
// Excluded under -race: the race runtime adds its own shadow allocations,
// so the counts are meaningless there — scripts/check.sh runs the gates in
// the plain pass.

import (
	"math/big"
	"testing"

	"arboretum/internal/benchrand"
)

func allocCeiling(t *testing.T, name string, max float64, f func()) {
	t.Helper()
	for i := 0; i < 3; i++ {
		f() // warm the scratch pools and grow the reused receivers
	}
	if got := testing.AllocsPerRun(10, f); got > max {
		t.Errorf("%s: %.1f allocs/op, ceiling %.0f", name, got, max)
	}
}

func TestAllocGatePaillier(t *testing.T) {
	rng := benchrand.New(0xA110E)
	sk, err := GenerateKey(rng, 512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	msg := big.NewInt(7)
	ct, err := pk.Encrypt(rng, msg)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*Ciphertext, 48)
	for i := range cts {
		cts[i] = ct
	}
	acc := pk.NewAccumulator()
	allocCeiling(t, "ahe.Encrypt", 2, func() {
		if _, err := pk.Encrypt(rng, msg); err != nil {
			t.Fatal(err)
		}
	})
	allocCeiling(t, "ahe.Accumulator.Add", 0, func() {
		if err := acc.Add(ct); err != nil {
			t.Fatal(err)
		}
	})
	allocCeiling(t, "ahe.Sum", 2, func() {
		if _, err := pk.Sum(cts); err != nil {
			t.Fatal(err)
		}
	})
	// Two per slot (the ciphertext box and its limbs) plus the result slice
	// and parallel.Map's error bookkeeping.
	const vecLen = 16
	allocCeiling(t, "ahe.EncryptVector", 2*vecLen+2, func() {
		if _, err := pk.EncryptVector(rng, vecLen, 3); err != nil {
			t.Fatal(err)
		}
	})
}
