package vsr

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	goruntime "runtime"
	"sync"
	"testing"

	"arboretum/internal/benchrand"
	"arboretum/internal/shamir"
)

// TestDefaultGroupSanity validates the built-in group's constants: P and Q
// prime, Q | P−1 with Q > 2^512, P of 1,536 bits, G ≠ 1 with G^Q ≡ 1 (so G
// has the prime order Q), and the sharing field Z_Q.
func TestDefaultGroupSanity(t *testing.T) {
	g := DefaultGroup()
	one := big.NewInt(1)
	if !g.P.ProbablyPrime(20) {
		t.Fatal("P not prime")
	}
	if !g.Q.ProbablyPrime(20) {
		t.Fatal("Q not prime")
	}
	if r := new(big.Int).Mod(new(big.Int).Sub(g.P, one), g.Q); r.Sign() != 0 {
		t.Fatal("Q does not divide P−1")
	}
	if g.Q.Cmp(new(big.Int).Lsh(one, 512)) <= 0 {
		t.Fatalf("Q has %d bits, want Q > 2^512", g.Q.BitLen())
	}
	if g.P.BitLen() != 1536 {
		t.Fatalf("P has %d bits, want 1536", g.P.BitLen())
	}
	if g.G.Cmp(one) == 0 || new(big.Int).Exp(g.G, g.Q, g.P).Cmp(one) != 0 {
		t.Fatal("G does not have order Q")
	}
	if g.Field().P.Cmp(g.Q) != 0 {
		t.Fatal("sharing field is not Z_Q")
	}
}

// TestDefaultGroupDerivation re-runs the search vsr.go documents from its
// label and requires the pinned constants: they are the search's output, not
// unexplained numbers.
func TestDefaultGroupDerivation(t *testing.T) {
	const label = "arboretum/vsr/schnorr-1536-513"
	// stream returns the first n bytes of SHA-256(label/tag ‖ i) for
	// i = 0, 1, …, i as four big-endian bytes, read as a big-endian integer.
	stream := func(tag string, n int) *big.Int {
		var buf []byte
		for i := uint32(0); len(buf) < n; i++ {
			h := sha256.New()
			h.Write([]byte(label + "/" + tag))
			h.Write(binary.BigEndian.AppendUint32(nil, i))
			buf = h.Sum(buf)
		}
		return new(big.Int).SetBytes(buf[:n])
	}
	one := big.NewInt(1)
	q := stream("q", 65)
	q.Rsh(q, 7).SetBit(q, 512, 1)
	for !q.ProbablyPrime(20) {
		q.Add(q, one)
	}
	k := stream("k", 192)
	k.SetBit(k, 1535, 1).Quo(k, q).SetBit(k, 0, 0)
	p := new(big.Int)
	for {
		p.Mul(k, q).Add(p, one)
		if p.BitLen() == 1536 && p.ProbablyPrime(20) {
			break
		}
		k.Add(k, big.NewInt(2))
	}
	e := new(big.Int).Quo(new(big.Int).Sub(p, one), q)
	gen := new(big.Int)
	for h := int64(2); ; h++ {
		if gen.Exp(big.NewInt(h), e, p).Cmp(one) != 0 {
			break
		}
	}
	g := DefaultGroup()
	for _, c := range []struct {
		name      string
		got, want *big.Int
	}{{"Q", g.Q, q}, {"P", g.P, p}, {"G", g.G, gen}} {
		if c.got.Cmp(c.want) != 0 {
			t.Errorf("pinned %s = %X, the search gives %X", c.name, c.got, c.want)
		}
	}
}

// The group is parsed once and shared, not rebuilt per query, and so is its
// sharing field.
func TestDefaultGroupBuiltOnce(t *testing.T) {
	if DefaultGroup() != DefaultGroup() {
		t.Fatal("DefaultGroup is rebuilt per call")
	}
	g := DefaultGroup()
	f := g.Field()
	if g.Field() != f {
		t.Fatal("Field is rebuilt per call")
	}
	if f.P.Cmp(g.Q) != 0 {
		t.Fatal("sharing field is not Z_Q")
	}
}

// commitValues are the edge values every Commit check covers: zero, one,
// both sides of Q, a negative value, and the largest 1536-bit value, far
// above Q, so Commit's reduction mod Q runs.
func commitValues(g *Group) []*big.Int {
	one := big.NewInt(1)
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(g.Q, one),
		new(big.Int).Set(g.Q),
		new(big.Int).Add(g.Q, one),
		big.NewInt(-1),
		new(big.Int).Sub(new(big.Int).Lsh(one, 1536), one),
	}
}

// expCommit is the definition Commit's comb must reproduce.
func expCommit(g *Group, v *big.Int) *big.Int {
	return new(big.Int).Exp(g.G, new(big.Int).Mod(v, g.Q), g.P)
}

// TestCommitMatchesExp holds the comb walk to the full exponentiation it
// replaced, on the edge values and on 200 random values up to 2^1536.
func TestCommitMatchesExp(t *testing.T) {
	g := DefaultGroup()
	vs := commitValues(g)
	rng := benchrand.New(28)
	buf := make([]byte, 192)
	for i := 0; i < 200; i++ {
		if _, err := rng.Read(buf); err != nil {
			t.Fatal(err)
		}
		vs = append(vs, new(big.Int).SetBytes(buf))
	}
	for _, v := range vs {
		if got, want := g.Commit(v), expCommit(g, v); got.Cmp(want) != 0 {
			t.Fatalf("Commit(%v) = %v, want G^(v mod Q) mod P = %v", v, got, want)
		}
	}
}

// TestGroupConcurrentFirstUse has eight goroutines make the first Field and
// Commit calls on a fresh group at once: under -race this checks the lazy
// builds are synchronized, and every goroutine must see the same field and
// correct commitments.
func TestGroupConcurrentFirstUse(t *testing.T) {
	d := DefaultGroup()
	g := &Group{P: d.P, Q: d.Q, G: d.G}
	vs := commitValues(g)
	const workers = 8
	fields := make([]*shamir.Field, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fields[w] = g.Field()
			v := vs[w%len(vs)]
			if got, want := g.Commit(v), expCommit(g, v); got.Cmp(want) != 0 {
				t.Errorf("goroutine %d: Commit(%v) = %v, want %v", w, v, got, want)
			}
		}(w)
	}
	wg.Wait()
	for w, f := range fields {
		if f != fields[0] {
			t.Fatalf("goroutine %d saw field %p, goroutine 0 saw %p", w, f, fields[0])
		}
	}
	if fields[0].P.Cmp(g.Q) != 0 {
		t.Fatal("sharing field is not Z_Q")
	}
}

// TestRedistributePreservesSecret runs the pooled protocol on one worker (the
// sequential loop) and on four: at both, every t-subset of the new shares
// must reconstruct the secret, and a shortfall must still be the typed
// ErrInsufficientShares.
func TestRedistributePreservesSecret(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	secret := big.NewInt(987654321012345)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
			old, err := field.Split(secret, 5, 3)
			if err != nil {
				t.Fatal(err)
			}
			const newN, newT = 7, 4
			shares, err := Redistribute(g, old, 3, newN, newT)
			if err != nil {
				t.Fatal(err)
			}
			for j, sh := range shares {
				if sh.X != int64(j+1) {
					t.Fatalf("share %d is at x=%d, want %d", j, sh.X, j+1)
				}
			}
			subsets := 0
			for mask := 0; mask < 1<<newN; mask++ {
				if bits.OnesCount(uint(mask)) != newT {
					continue
				}
				var sub []shamir.Share
				for j := 0; j < newN; j++ {
					if mask&(1<<j) != 0 {
						sub = append(sub, shares[j])
					}
				}
				got, err := field.Reconstruct(sub, newT)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(secret) != 0 {
					t.Fatalf("subset %07b reconstructs %v, want %v", mask, got, secret)
				}
				subsets++
			}
			if subsets != 35 {
				t.Fatalf("checked %d subsets, want C(7,4) = 35", subsets)
			}
			if _, err := Redistribute(g, old[:2], 3, newN, newT); !errors.Is(err, ErrInsufficientShares) {
				t.Errorf("Redistribute with 2 of 3 shares: got %v, want ErrInsufficientShares", err)
			}
		})
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
	d, err := deal(g, old[0], 4, 2)
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

// A dealer that hands member 3 member 1's valid sub-share must be caught:
// the sub-share verifies against the commitments at its own X, so only the
// X = j check rejects it, before Combine builds member 3's share from it.
func TestMisaddressedSubShareRejected(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	d, err := deal(g, old[0], 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.SubShares[2] = d.SubShares[0]
	if VerifySubShare(g, d, 3) {
		t.Fatal("member 1's sub-share accepted as member 3's")
	}
	if !VerifySubShare(g, d, 1) {
		t.Fatal("correctly addressed sub-share rejected")
	}
}

func TestTamperedSubShareRejected(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	d, _ := deal(g, old[0], 4, 2)
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

	honest, _ := deal(g, old[0], 4, 2)
	if honest.shareCommitment().Cmp(published) != 0 {
		t.Fatal("honest dealing's commitment mismatch")
	}
	lie := shamir.Share{X: old[0].X, Y: big.NewInt(999)}
	evil, _ := deal(g, lie, 4, 2)
	if evil.shareCommitment().Cmp(published) == 0 {
		t.Fatal("wrong share not detected by commitment check")
	}
}

func TestCombineErrors(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	d, _ := deal(g, old[0], 4, 2)
	if _, err := Combine(g, []*Dealing{d}, 1, 2); err == nil {
		t.Error("too few dealings accepted")
	}
	d2, _ := deal(g, old[1], 4, 2)
	if _, err := Combine(g, []*Dealing{d, d2}, 9, 2); err == nil {
		t.Error("out-of-range member accepted")
	}
}

func TestDealErrors(t *testing.T) {
	g := DefaultGroup()
	field := g.Field()
	old, _ := field.Split(big.NewInt(7), 3, 2)
	if _, err := deal(g, old[0], 2, 3); err == nil {
		t.Error("newN < newT accepted")
	}
	if _, err := deal(g, old[0], 3, 0); err == nil {
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

// BenchmarkRedistribute5to5 is the runtime's hand-off: a five-member
// committee at threshold 3 to the next five-member committee.
func BenchmarkRedistribute5to5(b *testing.B) {
	g := DefaultGroup()
	old, _ := g.Field().Split(big.NewInt(123456), 5, 3)
	Redistribute(g, old, 3, 5, 3) // build the comb outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Redistribute(g, old, 3, 5, 3); err != nil {
			b.Fatal(err)
		}
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

func BenchmarkCommit(b *testing.B) {
	g := DefaultGroup()
	v := new(big.Int).Sub(g.Q, big.NewInt(12345))
	g.Commit(v) // build the comb outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = g.Commit(v)
	}
}

var sink *big.Int

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
	d, err := deal(g, old[0], 4, 2)
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

// deal re-shares the member's share to a new committee of size newN with
// threshold newT.
func deal(g *Group, share shamir.Share, newN, newT int) (*Dealing, error) {
	d, poly, err := draw(g, share, newN, newT)
	if err != nil {
		return nil, err
	}
	for _, c := range poly.Coeffs {
		d.Commitments = append(d.Commitments, g.Commit(c))
	}
	return d, nil
}

// shareCommitment returns the dealing's commitment to the re-shared secret
// (g^{share}). Checked against the old sharing's published commitment, it
// catches an old member re-sharing a wrong value; Redistribute does not make
// that check yet.
func (d *Dealing) shareCommitment() *big.Int {
	if len(d.Commitments) == 0 {
		return nil
	}
	// Defensive copy: a caller mutating the returned value must not be able
	// to corrupt the dealing's published commitment (bigintalias invariant).
	return new(big.Int).Set(d.Commitments[0])
}
