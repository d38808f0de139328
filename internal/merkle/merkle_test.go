package merkle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("New(nil) should fail")
	}
}

func TestSingleLeaf(t *testing.T) {
	tr, err := New(leaves(1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(tr.Root(), []byte("leaf-0"), p) {
		t.Fatal("single-leaf proof failed to verify")
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 100} {
		ls := leaves(n)
		tr, err := New(ls)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.leaves) != n {
			t.Fatalf("%d leaves, want %d", len(tr.leaves), n)
		}
		for i := 0; i < n; i++ {
			p, err := tr.Prove(i)
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, i, err)
			}
			if !Verify(tr.Root(), ls[i], p) {
				t.Fatalf("n=%d leaf %d failed to verify", n, i)
			}
		}
	}
}

func TestWrongPayloadRejected(t *testing.T) {
	tr, _ := New(leaves(8))
	p, _ := tr.Prove(3)
	if Verify(tr.Root(), []byte("not-the-leaf"), p) {
		t.Fatal("verification accepted wrong payload")
	}
}

func TestWrongIndexRejected(t *testing.T) {
	tr, _ := New(leaves(8))
	p, _ := tr.Prove(3)
	p.Index = 4
	if Verify(tr.Root(), []byte("leaf-3"), p) {
		t.Fatal("verification accepted wrong index")
	}
}

func TestTamperedSiblingRejected(t *testing.T) {
	tr, _ := New(leaves(8))
	p, _ := tr.Prove(3)
	p.Siblings[0][0] ^= 0xff
	if Verify(tr.Root(), []byte("leaf-3"), p) {
		t.Fatal("verification accepted tampered sibling")
	}
}

func TestNilProofRejected(t *testing.T) {
	tr, _ := New(leaves(4))
	if Verify(tr.Root(), []byte("leaf-0"), nil) {
		t.Fatal("verification accepted nil proof")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tr, _ := New(leaves(4))
	if _, err := tr.Prove(-1); err == nil {
		t.Error("Prove(-1) should fail")
	}
	if _, err := tr.Prove(4); err == nil {
		t.Error("Prove(4) should fail")
	}
}

func TestLeafSwapChangesRoot(t *testing.T) {
	a, _ := New([][]byte{[]byte("x"), []byte("y")})
	b, _ := New([][]byte{[]byte("y"), []byte("x")})
	if a.Root() == b.Root() {
		t.Fatal("leaf order should change the root")
	}
}

// Domain separation: a tree whose single leaf equals an interior encoding of
// another tree must not produce the same root.
func TestDomainSeparation(t *testing.T) {
	inner, _ := New([][]byte{[]byte("a"), []byte("b")})
	l0 := LeafHash([]byte("a"))
	l1 := LeafHash([]byte("b"))
	payload := append([]byte{}, l0[:]...)
	payload = append(payload, l1[:]...)
	fake, _ := New([][]byte{payload})
	if inner.Root() == fake.Root() {
		t.Fatal("leaf/interior domain separation broken")
	}
}

// Property: every leaf of a random-size tree verifies; no leaf verifies
// against a different tree's root.
func TestQuickProofSoundness(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%50 + 1
		rng := rand.New(rand.NewSource(seed))
		ls := make([][]byte, n)
		for i := range ls {
			ls[i] = []byte(fmt.Sprintf("%d-%d", seed, rng.Int63()))
		}
		tr, err := New(ls)
		if err != nil {
			return false
		}
		i := rng.Intn(n)
		p, err := tr.Prove(i)
		if err != nil || !Verify(tr.Root(), ls[i], p) {
			return false
		}
		other, _ := New([][]byte{[]byte("other")})
		return !Verify(other.Root(), ls[i], p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAuditsPerDevice(t *testing.T) {
	// 1e9 devices auditing a 1000-leaf tree: one audit each is far more
	// than enough.
	if got := AuditsPerDevice(1000, 1_000_000_000, 1e-9); got != 1 {
		t.Errorf("AuditsPerDevice huge fleet = %d, want 1", got)
	}
	// 10 devices auditing 1000 leaves down to 1e-6 takes many audits each.
	got := AuditsPerDevice(1000, 10, 1e-6)
	if got < 100 {
		t.Errorf("AuditsPerDevice(1000,10,1e-6) = %d, want >= 100", got)
	}
	// Escape probability check: (1-1/n)^(k*devices) <= pMax.
	n, dev, pMax := 1000, int64(10), 1e-6
	k := AuditsPerDevice(n, dev, pMax)
	escape := 1.0
	for i := 0; i < k*int(dev); i++ {
		escape *= 1 - 1.0/float64(n)
	}
	if escape > pMax {
		t.Errorf("escape probability %g > pMax %g with k=%d", escape, pMax, k)
	}
	// Degenerate inputs.
	if AuditsPerDevice(1, 10, 0.5) != 1 || AuditsPerDevice(10, 0, 0.5) != 1 {
		t.Error("degenerate inputs should return 1")
	}
}

func TestProofBytes(t *testing.T) {
	tr, _ := New(leaves(16))
	p, _ := tr.Prove(0)
	if p.Bytes() != 8+4*HashSize {
		t.Errorf("Bytes() = %d, want %d", p.Bytes(), 8+4*HashSize)
	}
}

func BenchmarkBuild1024(b *testing.B) {
	ls := leaves(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(ls); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProveVerify(b *testing.B) {
	ls := leaves(1024)
	tr, _ := New(ls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := tr.Prove(i % 1024)
		if !Verify(tr.Root(), ls[i%1024], p) {
			b.Fatal("verify failed")
		}
	}
}

// Bytes returns the serialized size of the proof.
func (p *Proof) Bytes() int { return 8 + len(p.Siblings)*HashSize }

// AuditsPerDevice returns how many random leaves each of nDevices auditors
// must check so that a single incorrect leaf among nLeaves escapes all audits
// with probability at most pMax (Section 5.3). Each audit hits the bad leaf
// with probability 1/nLeaves, so the escape probability after k total audits
// is (1 − 1/nLeaves)^(k·nDevices) ≤ pMax.
func AuditsPerDevice(nLeaves int, nDevices int64, pMax float64) int {
	if nLeaves <= 1 || nDevices <= 0 || pMax >= 1 {
		return 1
	}
	perAudit := math.Log1p(-1.0 / float64(nLeaves)) // log(1 - 1/n) < 0
	needed := math.Log(pMax) / perAudit             // total audits required
	per := int(math.Ceil(needed / float64(nDevices)))
	if per < 1 {
		per = 1
	}
	return per
}
