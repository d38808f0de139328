//go:build !race

package vsr

// Allocation-regression gate for the group's memoized state: a warm Field
// hands back the one field the group built (the 513-bit primality test runs
// once per group, not per call), and a warm Commit walks the shared comb on
// pooled scratch, allocating only its result. Excluded under -race like the
// ahe and bgv gates: the race runtime adds its own allocations.

import (
	"math/big"
	"testing"
)

func TestAllocGateVSR(t *testing.T) {
	g := DefaultGroup()
	v := new(big.Int).Sub(g.Q, big.NewInt(12345))
	for i := 0; i < 3; i++ { // build the field and comb, warm the scratch pool
		g.Field()
		g.Commit(v)
	}
	if got := testing.AllocsPerRun(10, func() { g.Field() }); got != 0 {
		t.Errorf("vsr.Group.Field: %.1f allocs/op, want 0", got)
	}
	// The result's header and limbs.
	if got := testing.AllocsPerRun(10, func() { g.Commit(v) }); got > 2 {
		t.Errorf("vsr.Group.Commit: %.1f allocs/op, ceiling 2", got)
	}
}
