//go:build !race

package zkp

// The allocation-regression gate for the per-device proof path
// (docs/KERNELS.md's zero-alloc discipline). Excluded under -race, whose
// runtime adds shadow allocations; scripts/check.sh runs it in the plain
// pass.

import (
	"bytes"
	"testing"
)

// TestAllocGateZKP pins the per-device proof path at zero allocations:
// ProveKeyed into a reused slot, and Verify of a fresh device in a query
// whose replay bitset already exists.
func TestAllocGateZKP(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	v := NewVerifierFunc(func(int) []byte { return key }, 0, 1<<20)
	sc := NewScratch()
	s, w := stmtAndWitness(0, 1, 16)
	var p Proof
	if err := ProveKeyed(sc, key, s, w, &p); err != nil || !v.Verify(&p) {
		t.Fatal("warm-up proof rejected")
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ProveKeyed(sc, key, s, w, &p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ProveKeyed: %v allocs, want 0", n)
	}
	dev := 0
	if n := testing.AllocsPerRun(100, func() {
		dev++
		s.Device = dev
		if err := ProveKeyed(sc, key, s, w, &p); err != nil {
			t.Fatal(err)
		}
		if !v.Verify(&p) {
			t.Fatalf("device %d rejected", dev)
		}
	}); n != 0 {
		t.Errorf("ProveKeyed+Verify of a fresh device: %v allocs, want 0", n)
	}
}
