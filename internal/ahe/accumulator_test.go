package ahe

import (
	"math/big"
	"testing"

	"arboretum/internal/benchrand"
)

// TestAccumulatorMatchesAdd checks that the pooled fold is bit-identical to
// a chain of PublicKey.Add, including across Reset/Set checkpoint cycles.
func TestAccumulatorMatchesAdd(t *testing.T) {
	sk, err := GenerateKey(benchrand.New(1), 256)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	rng := benchrand.New(2)
	cts := make([]*Ciphertext, 33)
	want := big.NewInt(0)
	for i := range cts {
		m := big.NewInt(int64(i % 5))
		want.Add(want, m)
		if cts[i], err = pk.Encrypt(rng, m); err != nil {
			t.Fatal(err)
		}
	}

	ref := cts[0]
	for _, ct := range cts[1:] {
		if ref, err = pk.Add(ref, ct); err != nil {
			t.Fatal(err)
		}
	}

	acc := pk.NewAccumulator()
	if acc.Value() != nil {
		t.Fatal("new accumulator not empty")
	}
	for i, ct := range cts {
		if err := acc.Add(ct); err != nil {
			t.Fatal(err)
		}
		// Exercise the checkpoint cycle mid-fold: export, reset, reseed.
		if i == len(cts)/2 {
			snap := acc.Value()
			acc.Reset()
			if acc.Value() != nil {
				t.Fatal("reset accumulator not empty")
			}
			if err := acc.Set(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := acc.Value()
	if got.C.Cmp(ref.C) != 0 {
		t.Fatal("accumulator fold differs from Add chain")
	}
	// Value must be a copy: further folding must not reach it.
	if err := acc.Add(cts[0]); err != nil {
		t.Fatal(err)
	}
	if got.C.Cmp(ref.C) != 0 {
		t.Fatal("Value aliases accumulator state")
	}
	m, err := sk.Decrypt(got)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cmp(want) != 0 {
		t.Fatalf("accumulator sum decrypts to %v, want %v", m, want)
	}
}

// TestAccumulatorErrors covers the fail-closed edges of Add, Set and Value.
func TestAccumulatorErrors(t *testing.T) {
	sk, err := GenerateKey(benchrand.New(3), 256)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	acc := pk.NewAccumulator()
	if err := acc.Add(nil); err == nil {
		t.Fatal("Add(nil) did not error")
	}
	if err := acc.Add(&Ciphertext{}); err == nil {
		t.Fatal("Add of nil-valued ciphertext did not error")
	}
	if err := acc.Set(nil); err == nil {
		t.Fatal("Set(nil) did not error")
	}
	if got := acc.Value(); got != nil {
		t.Fatal("empty Value not nil")
	}
}
