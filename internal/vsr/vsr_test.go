package vsr

import (
	"errors"
	"math/big"
	"testing"

	"arboretum/internal/shamir"
)

// TestDefaultGroupSanity validates the built-in group's constant.
func TestDefaultGroupSanity(t *testing.T) {
	g := DefaultGroup()
	if !g.P.ProbablyPrime(20) {
		t.Fatal("P not prime")
	}
	if !g.Q.ProbablyPrime(20) {
		t.Fatal("Q not prime")
	}
	if twoQ := new(big.Int).Lsh(g.Q, 1); twoQ.Add(twoQ, big.NewInt(1)).Cmp(g.P) != 0 {
		t.Fatal("P != 2Q+1")
	}
	// G must have order Q: G^Q = 1 and G ≠ 1 (Q is prime).
	if g.G.Cmp(big.NewInt(1)) == 0 || new(big.Int).Exp(g.G, g.Q, g.P).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("G does not have order Q")
	}
	if g.Field().P.Cmp(g.Q) != 0 {
		t.Fatal("sharing field is not Z_Q")
	}
}

// The group is parsed once and shared, not rebuilt per query.
func TestDefaultGroupBuiltOnce(t *testing.T) {
	if DefaultGroup() != DefaultGroup() {
		t.Fatal("DefaultGroup is rebuilt per call")
	}
}

func TestRedistributePreservesSecret(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	secret := big.NewInt(987654321012345)

	oldShares, err := field.Split(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	newShares, err := Redistribute(g, oldShares, 3, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(newShares) != 7 {
		t.Fatalf("got %d new shares", len(newShares))
	}
	got, err := field.Reconstruct(newShares, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("redistributed secret = %v, want %v", got, secret)
	}
}

func TestRedistributeDifferentSizes(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	secret := big.NewInt(42)
	// Shrink the committee.
	old, _ := field.Split(secret, 7, 4)
	smaller, err := Redistribute(g, old, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := field.Reconstruct(smaller, 2)
	if got.Int64() != 42 {
		t.Fatalf("shrink: %v", got)
	}
	// Chain: redistribute twice (committee i → i+1 → i+2, Section 5.4).
	again, err := Redistribute(g, smaller, 2, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = field.Reconstruct(again, 3)
	if got.Int64() != 42 {
		t.Fatalf("chain: %v", got)
	}
}

func TestVerifySubShare(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	d, err := Deal(g, old[0], 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 4; j++ {
		if !VerifySubShare(g, d, j) {
			t.Errorf("honest sub-share %d rejected", j)
		}
	}
	if VerifySubShare(g, d, 0) || VerifySubShare(g, d, 5) {
		t.Error("out-of-range member index accepted")
	}
	if VerifySubShare(g, nil, 1) {
		t.Error("nil dealing accepted")
	}
}

func TestTamperedSubShareRejected(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	d, _ := Deal(g, old[0], 4, 2)
	d.SubShares[2].Y = new(big.Int).Add(d.SubShares[2].Y, big.NewInt(1))
	if VerifySubShare(g, d, 3) {
		t.Fatal("tampered sub-share passed verification")
	}
	// Other members are unaffected.
	if !VerifySubShare(g, d, 1) {
		t.Fatal("untampered sub-share rejected")
	}
}

// A malicious old member that re-shares a wrong value is caught by comparing
// the dealing's constant-term commitment with the published commitment of
// its original share.
func TestWrongShareCommitmentDetected(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	published := g.Commit(old[0].Y) // known from the previous round

	honest, _ := Deal(g, old[0], 4, 2)
	if honest.ShareCommitment().Cmp(published) != 0 {
		t.Fatal("honest dealing's commitment mismatch")
	}
	lie := shamir.Share{X: old[0].X, Y: big.NewInt(999)}
	evil, _ := Deal(g, lie, 4, 2)
	if evil.ShareCommitment().Cmp(published) == 0 {
		t.Fatal("wrong share not detected by commitment check")
	}
}

func TestCombineErrors(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	d, _ := Deal(g, old[0], 4, 2)
	if _, err := Combine(g, []*Dealing{d}, 1, 2); err == nil {
		t.Error("too few dealings accepted")
	}
	d2, _ := Deal(g, old[1], 4, 2)
	if _, err := Combine(g, []*Dealing{d, d2}, 9, 2); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestDealErrors(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	if _, err := Deal(g, old[0], 2, 3); err == nil {
		t.Error("newN < newT accepted")
	}
	if _, err := Deal(g, old[0], 3, 0); err == nil {
		t.Error("newT=0 accepted")
	}
}

func TestRedistributeErrors(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	if _, err := Redistribute(g, old[:1], 2, 3, 2); err == nil {
		t.Error("too few old shares accepted")
	}
}

func TestDealingBytes(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	d, _ := Deal(g, old[0], 4, 2)
	if d.Bytes() <= 0 {
		t.Error("Bytes() not positive")
	}
}

func BenchmarkRedistribute5to7(b *testing.B) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(123456), 5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Redistribute(g, old, 3, 7, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInsufficientSharesTyped: both VSR entry points report share shortfalls
// through the typed ErrInsufficientShares, which the runtime's hand-off
// recovery matches with errors.Is to decide between re-dealing and failing
// closed.
func TestInsufficientSharesTyped(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 5, 3)
	if _, err := Redistribute(g, old[:2], 3, 7, 4); !errors.Is(err, ErrInsufficientShares) {
		t.Errorf("Redistribute with 2 of 3 shares: got %v, want ErrInsufficientShares", err)
	}
	d, err := Deal(g, old[0], 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Combine(g, []*Dealing{d}, 1, 3); !errors.Is(err, ErrInsufficientShares) {
		t.Errorf("Combine with 1 of 3 dealings: got %v, want ErrInsufficientShares", err)
	}
	// Enough shares: no typed error.
	if _, err := Redistribute(g, old, 3, 7, 4); err != nil {
		t.Errorf("full redistribution failed: %v", err)
	}
}
