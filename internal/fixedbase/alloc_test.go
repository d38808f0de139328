//go:build !race

package fixedbase

// Allocation-regression gate for the comb, the kernel under every ahe
// encryption and vsr commitment (docs/KERNELS.md): a warm walk reuses its
// Scratch and accumulator, so it allocates nothing, and New builds the whole
// table into one word slab. Excluded under -race like the ahe, bgv and vsr
// gates: the race runtime adds its own allocations.

import (
	"math/big"
	"testing"

	"arboretum/internal/benchrand"
)

// newAllocs caps New at both sizes: the table, its modulus words and slab,
// the base in Montgomery form (g·R mod m, one Lsh and two Mods), the build's
// step buffers and the group fill's closure measure 9 allocations at either
// size, the vsr one a 65-byte exponent over a 1536-bit modulus
// (AllocsPerRun holds GOMAXPROCS at 1, so the fill runs on the caller). Runs
// also measure 11 and 13: math/big's division draws its two scratch nats
// from a sync.Pool, and a miss costs two allocations each, so the ceiling
// covers both missing at once with one to spare.
// Before the slab it was one per entry, 1,936 at the ahe size.
const newAllocs = 14

func TestAllocGateFixedBase(t *testing.T) {
	rng := benchrand.New(0xA110C)
	for _, size := range sizes {
		m := oddModulus(t, rng, size.modBits)
		g := big.NewInt(4)
		if got := testing.AllocsPerRun(2, func() { New(g, m, size.expLen) }); got > newAllocs {
			t.Errorf("%s: New: %.0f allocs, ceiling %d", size.name, got, newAllocs)
		}
		tab := New(g, m, size.expLen)
		exp := randomBytes(t, rng, size.expLen)
		var z big.Int
		var s Scratch
		tab.Exp(&z, &s, exp) // grow the scratch and the accumulator
		if got := testing.AllocsPerRun(10, func() { tab.Exp(&z, &s, exp) }); got != 0 {
			t.Errorf("%s: warm Exp: %.1f allocs/op, want 0", size.name, got)
		}
	}
}
