package shamir

import (
	"errors"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"
)

// testPrime is a 61-bit NTT-friendly prime, plenty for unit tests.
var testPrime = big.NewInt((1 << 61) - 1) // 2^61-1 is a Mersenne prime

func field(t testing.TB) *Field {
	f, err := NewField(testPrime)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewFieldRejectsComposite(t *testing.T) {
	if _, err := NewField(big.NewInt(15)); err == nil {
		t.Error("composite modulus accepted")
	}
	if _, err := NewField(big.NewInt(2)); err == nil {
		t.Error("even modulus accepted")
	}
	if _, err := NewField(nil); err == nil {
		t.Error("nil modulus accepted")
	}
}

func TestMustFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustField(4) did not panic")
		}
	}()
	MustField(big.NewInt(4))
}

func TestSplitReconstruct(t *testing.T) {
	f := field(t)
	secret := big.NewInt(123456789)
	shares, err := f.Split(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 5 {
		t.Fatalf("got %d shares", len(shares))
	}
	got, err := f.Reconstruct(shares, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("reconstructed %v, want %v", got, secret)
	}
	// Any subset of 3 works.
	got, err = f.Reconstruct([]Share{shares[4], shares[1], shares[2]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("subset reconstruction %v, want %v", got, secret)
	}
}

func TestReconstructTooFewShares(t *testing.T) {
	f := field(t)
	shares, _ := f.Split(big.NewInt(7), 5, 3)
	if _, err := f.Reconstruct(shares[:2], 3); err == nil {
		t.Fatal("reconstruction with too few shares should fail")
	}
}

func TestReconstructDuplicateShares(t *testing.T) {
	f := field(t)
	shares, _ := f.Split(big.NewInt(7), 5, 3)
	dup := []Share{shares[0], shares[0], shares[1]}
	if _, err := f.Reconstruct(dup, 3); err == nil {
		t.Fatal("duplicate shares should be rejected")
	}
}

func TestSplitInvalidParams(t *testing.T) {
	f := field(t)
	if _, err := f.Split(big.NewInt(1), 2, 3); err == nil {
		t.Error("n < t accepted")
	}
	if _, err := f.Split(big.NewInt(1), 3, 0); err == nil {
		t.Error("t = 0 accepted")
	}
}

func TestTMinusOneSharesRevealNothingStructural(t *testing.T) {
	// Structural check: with t-1 shares, every candidate secret is
	// consistent with some polynomial, so reconstruction at threshold t-1
	// (if forced) yields a value that need not be the secret. We verify the
	// sharing is actually random by checking two sharings of the same
	// secret differ.
	f := field(t)
	s1, _ := f.Split(big.NewInt(42), 3, 2)
	s2, _ := f.Split(big.NewInt(42), 3, 2)
	if s1[0].Y.Cmp(s2[0].Y) == 0 && s1[1].Y.Cmp(s2[1].Y) == 0 {
		t.Fatal("two sharings identical: polynomial not randomized")
	}
}

func TestHomomorphicAdd(t *testing.T) {
	f := field(t)
	a, _ := f.Split(big.NewInt(1000), 5, 3)
	b, _ := f.Split(big.NewInt(234), 5, 3)
	sum := make([]Share, 5)
	for i := range sum {
		s, err := f.Add(a[i], b[i])
		if err != nil {
			t.Fatal(err)
		}
		sum[i] = s
	}
	got, err := f.Reconstruct(sum, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 1234 {
		t.Fatalf("share-wise add reconstructed %v, want 1234", got)
	}
}

func TestAddMismatchedPoints(t *testing.T) {
	f := field(t)
	a, _ := f.Split(big.NewInt(1), 3, 2)
	if _, err := f.Add(a[0], a[1]); err == nil {
		t.Fatal("adding shares at different points should fail")
	}
}

func TestScalarMulAndAddConst(t *testing.T) {
	f := field(t)
	a, _ := f.Split(big.NewInt(21), 5, 3)
	doubled := make([]Share, 5)
	plus5 := make([]Share, 5)
	for i := range a {
		doubled[i] = f.ScalarMul(a[i], big.NewInt(2))
		plus5[i] = f.AddConst(a[i], big.NewInt(5))
	}
	got, _ := f.Reconstruct(doubled, 3)
	if got.Int64() != 42 {
		t.Fatalf("2*21 = %v", got)
	}
	got, _ = f.Reconstruct(plus5, 3)
	if got.Int64() != 26 {
		t.Fatalf("21+5 = %v", got)
	}
}

// TestSecretOutsideFieldRefused: a secret outside [0, p) used to be reduced
// silently, sharing a different value; Split and RandomPolynomial now refuse
// it with ErrSecretRange, and p − 1 still round-trips.
func TestSecretOutsideFieldRefused(t *testing.T) {
	f := field(t)
	for _, s := range []*big.Int{big.NewInt(-1), new(big.Int).Set(f.P), new(big.Int).Lsh(f.P, 1)} {
		if _, err := f.Split(s, 5, 3); !errors.Is(err, ErrSecretRange) {
			t.Errorf("Split(%v): got %v, want ErrSecretRange", s, err)
		}
		if _, err := f.RandomPolynomial(s, 3); !errors.Is(err, ErrSecretRange) {
			t.Errorf("RandomPolynomial(%v): got %v, want ErrSecretRange", s, err)
		}
	}
	top := new(big.Int).Sub(f.P, big.NewInt(1))
	shares, err := f.Split(top, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.Reconstruct(shares[2:], 3); err != nil || got.Cmp(top) != 0 {
		t.Fatalf("Reconstruct = %v, %v; want %v", got, err, top)
	}
}

func TestLagrangeCoefficients(t *testing.T) {
	f := field(t)
	secret := big.NewInt(987654321)
	shares, _ := f.Split(secret, 4, 3)
	xs := []int64{shares[0].X, shares[2].X, shares[3].X}
	coeffs, err := f.LagrangeCoefficients(xs)
	if err != nil {
		t.Fatal(err)
	}
	acc := new(big.Int)
	for i, sh := range []Share{shares[0], shares[2], shares[3]} {
		term := new(big.Int).Mul(coeffs[i], sh.Y)
		acc.Add(acc, term)
		acc.Mod(acc, f.P)
	}
	if acc.Cmp(secret) != 0 {
		t.Fatalf("coefficient reconstruction %v, want %v", acc, secret)
	}
}

func TestLagrangeCoefficientsRejectsBadPoints(t *testing.T) {
	f := field(t)
	if _, err := f.LagrangeCoefficients([]int64{0, 1}); err == nil {
		t.Error("x=0 accepted")
	}
	if _, err := f.LagrangeCoefficients([]int64{1, 1}); err == nil {
		t.Error("duplicate x accepted")
	}
}

// Property: reconstruct∘split is the identity for random secrets, thresholds
// and committee sizes.
func TestQuickSplitReconstruct(t *testing.T) {
	f := field(t)
	fn := func(raw uint64, nRaw, tRaw uint8) bool {
		n := int(nRaw)%10 + 1
		th := int(tRaw)%n + 1
		secret := new(big.Int).SetUint64(raw)
		secret.Mod(secret, f.P)
		shares, err := f.Split(secret, n, th)
		if err != nil {
			return false
		}
		got, err := f.Reconstruct(shares, th)
		return err == nil && got.Cmp(secret) == 0
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: linearity — reconstruct(a+b shares) = a+b.
func TestQuickLinearity(t *testing.T) {
	f := field(t)
	fn := func(a, b uint32) bool {
		sa, err1 := f.Split(big.NewInt(int64(a)), 4, 2)
		sb, err2 := f.Split(big.NewInt(int64(b)), 4, 2)
		if err1 != nil || err2 != nil {
			return false
		}
		sum := make([]Share, 4)
		for i := range sum {
			s, err := f.Add(sa[i], sb[i])
			if err != nil {
				return false
			}
			sum[i] = s
		}
		got, err := f.Reconstruct(sum, 2)
		return err == nil && got.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSplit40(b *testing.B) {
	f := MustField(testPrime)
	secret := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Split(secret, 40, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct40(b *testing.B) {
	f := MustField(testPrime)
	shares, _ := f.Split(big.NewInt(123456789), 40, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Reconstruct(shares, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReconstructEveryThresholdSubset checks the exact threshold boundary:
// every 3-of-5 subset reconstructs the secret, and no subset needs a fourth
// share — the property VSR re-dealing from arbitrary survivors relies on.
func TestReconstructEveryThresholdSubset(t *testing.T) {
	f := field(t)
	secret := big.NewInt(31337)
	shares, err := f.Split(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			for c := b + 1; c < 5; c++ {
				subset := []Share{shares[a], shares[b], shares[c]}
				got, err := f.Reconstruct(subset, 3)
				if err != nil {
					t.Fatalf("subset {%d,%d,%d}: %v", a, b, c, err)
				}
				if got.Cmp(secret) != 0 {
					t.Errorf("subset {%d,%d,%d} reconstructed %v, want %v",
						a, b, c, got, secret)
				}
			}
		}
	}
}

// TestReconstructDuplicateIndexVariants pins duplicate-index handling:
// duplicates inside the threshold prefix are rejected, while extra shares
// beyond the first t are never consulted (Reconstruct's documented
// first-t-shares contract).
func TestReconstructDuplicateIndexVariants(t *testing.T) {
	f := field(t)
	secret := big.NewInt(99)
	shares, _ := f.Split(secret, 5, 3)
	// Duplicate at the front: rejected.
	if _, err := f.Reconstruct([]Share{shares[2], shares[2], shares[4]}, 3); err == nil {
		t.Error("duplicate index inside the threshold prefix accepted")
	}
	// x=0 smuggled in: rejected (it would leak the constant term trivially).
	if _, err := f.Reconstruct([]Share{{X: 0, Y: big.NewInt(1)}, shares[1], shares[2]}, 3); err == nil {
		t.Error("share at x=0 accepted")
	}
	// A duplicate past the threshold prefix is ignored, not an error.
	got, err := f.Reconstruct([]Share{shares[0], shares[1], shares[2], shares[2]}, 3)
	if err != nil {
		t.Fatalf("trailing duplicate rejected: %v", err)
	}
	if got.Cmp(secret) != 0 {
		t.Errorf("reconstructed %v, want %v", got, secret)
	}
}

// TestWrongDealingShareShiftsSecret documents why VSR needs commitments: a
// share dealt from the wrong polynomial (here: a tampered Y) reconstructs to
// a *wrong* secret without any error from plain Shamir — only the
// commitment check in internal/vsr can catch it.
func TestWrongDealingShareShiftsSecret(t *testing.T) {
	f := field(t)
	secret := big.NewInt(424242)
	shares, _ := f.Split(secret, 5, 3)
	bad := Share{X: shares[0].X, Y: new(big.Int).Add(shares[0].Y, big.NewInt(1))}
	got, err := f.Reconstruct([]Share{bad, shares[1], shares[2]}, 3)
	if err != nil {
		t.Fatalf("tampered share rejected by plain Shamir: %v", err)
	}
	if got.Cmp(secret) == 0 {
		t.Error("tampered share still reconstructed the true secret")
	}
}

// Add returns the share-wise sum of two sharings (same X required), the
// local "addition gate" of Shamir MPC.
func (f *Field) Add(a, b Share) (Share, error) {
	if a.X != b.X {
		return Share{}, fmt.Errorf("shamir: mismatched share points %d and %d", a.X, b.X)
	}
	y := new(big.Int).Add(a.Y, b.Y)
	y.Mod(y, f.P)
	return Share{X: a.X, Y: y}, nil
}

// ScalarMul multiplies a share by a public constant.
func (f *Field) ScalarMul(a Share, k *big.Int) Share {
	y := new(big.Int).Mul(a.Y, k)
	y.Mod(y, f.P)
	return Share{X: a.X, Y: y}
}

// AddConst adds a public constant to a sharing (added to every share of a
// degree-(t−1) sharing of the secret; valid because the constant polynomial
// is itself a valid sharing of k).
func (f *Field) AddConst(a Share, k *big.Int) Share {
	y := new(big.Int).Add(a.Y, k)
	y.Mod(y, f.P)
	return Share{X: a.X, Y: y}
}
