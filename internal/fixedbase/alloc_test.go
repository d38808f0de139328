//go:build !race

package fixedbase

// Allocation-regression gate for the comb, the kernel under every ahe
// encryption and vsr commitment (docs/KERNELS.md): a warm walk reuses its
// Scratch and accumulator, so it allocates nothing, and New builds the whole
// table into one word slab. Excluded under -race like the ahe, bgv and vsr
// gates: the race runtime adds its own allocations.

import (
	"math/big"
	"runtime"
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

// newBytes104 caps the bytes New allocates for a table sized to 104 walks,
// a gateway key's 96 uploads and 8 re-encryptions, at ahe's size: the 8 × 5
// shape's slab of 5·255 entries of 128 bytes, 163,200 bytes, plus the
// build's few thousand (165,856 measured). The 9 × 8 slab every key built
// before was 523,264.
const newBytes104 = 170_000

func TestAllocGateFixedBase(t *testing.T) {
	rng := benchrand.New(0xA110C)
	for _, size := range sizes {
		m := oddModulus(t, rng, size.modBits)
		g := big.NewInt(4)
		if got := testing.AllocsPerRun(2, func() { New(g, m, size.expLen, size.walks) }); got > newAllocs {
			t.Errorf("%s: New: %.0f allocs, ceiling %d", size.name, got, newAllocs)
		}
		tab := New(g, m, size.expLen, size.walks)
		exp := randomBytes(t, rng, size.expLen)
		var z big.Int
		var s Scratch
		tab.Exp(&z, &s, exp) // grow the scratch and the accumulator
		if got := testing.AllocsPerRun(10, func() { tab.Exp(&z, &s, exp) }); got != 0 {
			t.Errorf("%s: warm Exp: %.1f allocs/op, want 0", size.name, got)
		}
	}
	// The least of three builds, so a pool miss in math/big's division
	// does not count.
	m := oddModulus(t, rng, 1024)
	g := big.NewInt(4)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var least uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(g, m, 64, 104)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	if least > newBytes104 {
		t.Errorf("New at 104 walks: %d bytes, ceiling %d", least, newBytes104)
	}
}
