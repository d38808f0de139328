package vsr

// Tests of the combined Feldman check (finish): the integer Lagrange weights
// it rests on, blame that matches the per-dealing loop it replaced,
// acceptance of sub-share errors that cancel in a member's combination, and
// honest hand-offs from survivor subsets that are not prefixes.

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"testing"

	"arboretum/internal/benchrand"
	"arboretum/internal/shamir"
)

// TestWeightsMatchLagrange: D·λ_i ≡ a_i (mod Q) for every 3-subset of 1..5
// and for random 21-subsets of 1..41, with D positive.
func TestWeightsMatchLagrange(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	var sets [][]int64
	for a := int64(1); a <= 5; a++ {
		for b := a + 1; b <= 5; b++ {
			for c := b + 1; c <= 5; c++ {
				sets = append(sets, []int64{a, b, c})
			}
		}
	}
	rng := benchrand.New(41)
	for n := 0; n < 8; n++ {
		perm := permutation(rng, 41)
		xs := make([]int64, 21)
		for i := range xs {
			xs[i] = int64(perm[i] + 1)
		}
		sets = append(sets, xs)
	}
	for _, xs := range sets {
		D, a, err := weights(xs)
		if err != nil {
			t.Fatal(err)
		}
		if D.Sign() <= 0 {
			t.Fatalf("%v: D = %v, want positive", xs, D)
		}
		lambda, err := field.LagrangeCoefficients(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			want := new(big.Int).Mul(D, lambda[i])
			want.Mod(want, g.Q)
			if got := new(big.Int).Mod(a[i], g.Q); got.Cmp(want) != 0 {
				t.Fatalf("%v: a_%d = %v ≢ D·λ_%d = %v (mod Q)", xs, i, a[i], i, want)
			}
		}
	}
	for _, bad := range [][]int64{{0, 1}, {2, 2}} {
		if _, _, err := weights(bad); err == nil {
			t.Errorf("weights(%v) accepted a bad point", bad)
		}
	}
}

// dealAll deals every old share to a committee of newN at threshold newT.
func dealAll(t *testing.T, g *Group, old []shamir.Share, newN, newT int) []*Dealing {
	t.Helper()
	ds := make([]*Dealing, len(old))
	for i, sh := range old {
		d, err := deal(g, sh, newN, newT)
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	return ds
}

// withSubShare returns a copy of ds in which dealing i's sub-share for
// member j is sub; ds itself is untouched.
func withSubShare(ds []*Dealing, i, j int, sub shamir.Share) []*Dealing {
	out := append([]*Dealing(nil), ds...)
	d := *ds[i]
	d.SubShares = append([]shamir.Share(nil), d.SubShares...)
	d.SubShares[j-1] = sub
	out[i] = &d
	return out
}

// perDealing is the check finish replaced: every member verifies every
// sub-share, and the lowest failing member's lowest failing dealing is
// named.
func perDealing(g *Group, ds []*Dealing, newN int) error {
	for j := 1; j <= newN; j++ {
		for i, d := range ds {
			if !VerifySubShare(g, d, j) {
				return fmt.Errorf("vsr: member %d rejected dealing from x=%d (%d)", j, d.FromX, i)
			}
		}
	}
	return nil
}

// TestFinishBlameMatchesPerDealing corrupts each (member, dealing) sub-share
// in turn: finish must refuse the hand-off with the error the per-dealing
// loop gives, naming the same member and dealing. A sub-share addressed to
// another member is refused the same way.
func TestFinishBlameMatchesPerDealing(t *testing.T) {
	g := DefaultGroup()
	old, err := g.Field().Split(big.NewInt(2024), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	const newN, newT = 5, 3
	ds := dealAll(t, g, []shamir.Share{old[1], old[3], old[4]}, newN, newT)
	for i := range ds {
		for j := 1; j <= newN; j++ {
			sub := ds[i].SubShares[j-1]
			bad := withSubShare(ds, i, j, shamir.Share{X: sub.X, Y: new(big.Int).Add(sub.Y, big.NewInt(1))})
			want := perDealing(g, bad, newN)
			if want == nil {
				t.Fatalf("dealing %d member %d: the per-dealing loop accepted a corrupt sub-share", i, j)
			}
			if _, err := finish(g, bad, newN); err == nil || err.Error() != want.Error() {
				t.Errorf("dealing %d member %d: finish = %v, want %v", i, j, err, want)
			}
		}
	}
	// Member 1's valid sub-share handed to member 3.
	bad := withSubShare(ds, 1, 3, ds[1].SubShares[0])
	want := perDealing(g, bad, newN)
	if _, err := finish(g, bad, newN); want == nil || err == nil || err.Error() != want.Error() {
		t.Errorf("misaddressed sub-share: finish = %v, per-dealing loop %v", err, want)
	}
}

// TestFinishAcceptsCancellingErrors: errors δ1 and δ2 in member j's
// sub-shares from dealings 0 and 1 with λ_0·δ1 + λ_1·δ2 ≡ 0 leave s′_j
// unchanged. Each sub-share fails VerifySubShare, but the combined check
// accepts, and the new shares still reconstruct the secret.
func TestFinishAcceptsCancellingErrors(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	secret := big.NewInt(777)
	old, err := field.Split(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	const newN, newT, j = 5, 3, 4
	dealers := []shamir.Share{old[0], old[2], old[4]}
	ds := dealAll(t, g, dealers, newN, newT)
	lambda, err := field.LagrangeCoefficients([]int64{dealers[0].X, dealers[1].X, dealers[2].X})
	if err != nil {
		t.Fatal(err)
	}
	shift := func(y, delta *big.Int) *big.Int {
		return new(big.Int).Mod(new(big.Int).Add(y, delta), g.Q)
	}
	s0, s1 := ds[0].SubShares[j-1], ds[1].SubShares[j-1]
	bad := withSubShare(ds, 0, j, shamir.Share{X: j, Y: shift(s0.Y, lambda[1])})
	bad = withSubShare(bad, 1, j, shamir.Share{X: j, Y: shift(s1.Y, new(big.Int).Neg(lambda[0]))})
	if VerifySubShare(g, bad[0], j) || VerifySubShare(g, bad[1], j) {
		t.Fatal("a shifted sub-share passed its own Feldman check")
	}
	shares, err := finish(g, bad, newN)
	if err != nil {
		t.Fatalf("cancelling errors refused: %v", err)
	}
	got, err := field.Reconstruct([]shamir.Share{shares[j-1], shares[0], shares[2]}, newT)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("reconstructed %v, want %v", got, secret)
	}
}

// TestRedistributeFromSurvivors: honest 5→5, 5→7 and 21-of-41 hand-offs from
// survivor subsets that are not prefixes of the old committee; a non-prefix
// threshold subset of the new shares reconstructs the secret.
func TestRedistributeFromSurvivors(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	secret, _ := new(big.Int).SetString("123456789012345678901234567890", 10)
	rng := benchrand.New(7)
	for _, c := range []struct{ oldN, oldT, newN, newT int }{
		{5, 3, 5, 3},
		{5, 3, 7, 4},
		{41, 21, 41, 21},
	} {
		t.Run(fmt.Sprintf("%dto%d", c.oldN, c.newN), func(t *testing.T) {
			old, err := field.Split(secret, c.oldN, c.oldT)
			if err != nil {
				t.Fatal(err)
			}
			survivors := pick(rng, old, c.oldT)
			shares, err := Redistribute(g, survivors, c.oldT, c.newN, c.newT)
			if err != nil {
				t.Fatal(err)
			}
			got, err := field.Reconstruct(pick(rng, shares, c.newT), c.newT)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(secret) != 0 {
				t.Fatalf("reconstructed %v, want %v", got, secret)
			}
		})
	}
}

// permutation returns a Fisher–Yates shuffle of 0..n−1 drawn from rng.
func permutation(rng *benchrand.Reader, n int) []int {
	perm := make([]int, n)
	var b [8]byte
	for i := range perm {
		if _, err := rng.Read(b[:]); err != nil {
			panic(err)
		}
		j := int(binary.LittleEndian.Uint64(b[:]) % uint64(i+1))
		perm[i], perm[j] = perm[j], i
	}
	return perm
}

// pick returns n of shares in random order, never the first n in order.
func pick(rng *benchrand.Reader, shares []shamir.Share, n int) []shamir.Share {
	for {
		perm := permutation(rng, len(shares))
		prefix := true
		out := make([]shamir.Share, n)
		for i := range out {
			out[i] = shares[perm[i]]
			prefix = prefix && perm[i] == i
		}
		if !prefix {
			return out
		}
	}
}
