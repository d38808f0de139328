//go:build !race

package mpc

// Allocation-regression gate for the engine (docs/KERNELS.md). A Beaver Mul
// deals its triple into engine scratch and carves only its product from the
// share slab; a comparison keeps its dealer bits and prefix products in
// scratch and carves three sharings. So both allocate only when a slab runs
// out: a slab holds 204 five-party sharings, one per 204 Muls or ~68
// Lesses, and testing.AllocsPerRun's whole-number average reads 0 for each.
// An engine that never shares a value allocates what NewEngine always has:
// the engine and its Lagrange coefficients; the
// dealer's block, the slab and the scratch wait for the first sharing, since
// a deployment forms an engine per committee and most never run a round.
// Excluded under -race like the other gates: the race runtime adds its own
// allocations.

import "testing"

// newEngineAllocs is what NewEngine allocates: the engine and its Lagrange
// coefficients.
const newEngineAllocs = 2

func TestAllocGateMPC(t *testing.T) {
	if got := testing.AllocsPerRun(10, func() { NewEngine(5) }); got != newEngineAllocs {
		t.Errorf("NewEngine(5): %.0f allocs, want %d", got, newEngineAllocs)
	}
	e := newEngine(t, 5)
	x, _ := e.Input(0, 123)
	y, _ := e.Input(1, -456)
	if _, err := e.Less(x, y); err != nil { // make the workspace
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { e.Mul(x, y) }); got >= 1 {
		t.Errorf("warm Mul: %.0f allocs/op, want below 1", got)
	}
	less := func() {
		if _, err := e.Less(x, y); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, less); got >= 1 {
		t.Errorf("warm Less: %.0f allocs/op, want below 1", got)
	}
}
