//go:build !race

package bgv

// Allocation-regression gates for the hot paths (docs/KERNELS.md): the
// zero-alloc discipline — pooled scratch, slab results, cached key NTT forms
// — is pinned with testing.AllocsPerRun so a regression fails `go test`, not
// just a benchmark eyeball. Each ceiling is the measured steady-state count
// (a result ciphertext is one slab plus one struct = 2) with no slack: any
// new allocation on these paths is a deliberate decision that must edit this
// file. Excluded under -race (like the ingest memory smoke): the race
// runtime adds its own shadow allocations, so the counts are meaningless
// there — scripts/check.sh runs the gates in the plain pass.
//
// The gates run at one worker (testing.AllocsPerRun pins GOMAXPROCS to 1,
// which is what sizes the pool) because the parallel paths allocate closures
// per call by design — the discipline is about the per-op steady state,
// which at scale is dominated by the sequential inner loops.

import (
	"testing"

	"arboretum/internal/benchrand"
)

// allocCeiling runs f to steady state and fails if its allocation count
// exceeds max.
func allocCeiling(t *testing.T, name string, max float64, f func()) {
	t.Helper()
	for i := 0; i < 3; i++ {
		f() // warm the scratch pools
	}
	if got := testing.AllocsPerRun(10, f); got > max {
		t.Errorf("%s: %.1f allocs/op, ceiling %.0f", name, got, max)
	}
}

// allocGate pins Encrypt and Mul on the ring p at two allocations each.
func allocGate(t *testing.T, p Params, seed uint64) {
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := benchrand.New(seed)
	kp, err := ctx.GenerateKeys(rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ctx.Encode([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	ct1, err := ctx.Encrypt(rng, kp.PK, m)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := ctx.Encrypt(rng, kp.PK, m)
	if err != nil {
		t.Fatal(err)
	}
	allocCeiling(t, "bgv.Encrypt", 2, func() {
		if _, err := ctx.Encrypt(rng, kp.PK, m); err != nil {
			t.Fatal(err)
		}
	})
	allocCeiling(t, "bgv.Mul", 2, func() {
		if _, err := ctx.Mul(ct1, ct2, kp.RLK); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGateSinglePrime gates the one-prime ring (L = 1).
func TestAllocGateSinglePrime(t *testing.T) { allocGate(t, TestParams, 0xA110C) }

// TestAllocGateRNS gates the three-prime test ring.
func TestAllocGateRNS(t *testing.T) { allocGate(t, TestRNSParams, 0xA110D) }
