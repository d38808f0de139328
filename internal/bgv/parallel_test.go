package bgv

// Determinism tests: the batched/parallel formulations must be bit-identical
// to their sequential counterparts at any worker count, because all ring
// arithmetic is exact mod Q. They run the one-prime ring (TestParams), where
// a ring element is a single row and the textbook formulation is one lane.

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"runtime"
	"testing"
)

// polyEq compares two polynomials coefficient-wise.
func polyEq(a, b Poly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMulMatchesTextbookFormulation recomputes a multiplication with the
// textbook per-product polyMulRow formulation and asserts the
// evaluation-domain version produces the exact same ciphertext.
func TestMulMatchesTextbookFormulation(t *testing.T) {
	ctx, err := NewContext(TestParams)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := ctx.GenerateKeys(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctx.EncryptValues(rand.Reader, kp.PK, []uint64{5, 7, 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptValues(rand.Reader, kp.PK, []uint64{3})
	if err != nil {
		t.Fatal(err)
	}

	// Textbook reference: tensor via per-product multiplication, relinearize
	// digit by digit in the coefficient domain.
	mul := func(x, y []uint64) []uint64 { return ctx.polyMulRow(0, x, y) }
	add := func(x, y []uint64) []uint64 {
		out := make([]uint64, len(x))
		for i := range out {
			out[i] = addMod(x[i], y[i], Q)
		}
		return out
	}
	rlk := kp.RLK
	d0 := mul(a.C0, b.C0)
	d1 := add(mul(a.C0, b.C1), mul(a.C1, b.C0))
	d2 := mul(a.C1, b.C1)
	mask := uint64(1<<relinLogBase) - 1
	c0, c1 := d0, d1
	rem := append([]uint64(nil), d2...)
	for i := 0; i < len(rlk.A); i++ {
		digit := make([]uint64, len(rem))
		for j := range rem {
			digit[j] = rem[j] & mask
			rem[j] >>= relinLogBase
		}
		c0 = add(c0, mul(digit, rlk.B[i]))
		c1 = add(c1, mul(digit, rlk.A[i]))
	}

	for _, workers := range []int{1, 4} {
		old := runtime.GOMAXPROCS(workers)
		got, err := ctx.Mul(a, b, rlk)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if !polyEq(got.C0, c0) || !polyEq(got.C1, c1) {
			t.Fatalf("workers=%d: batched Mul differs from textbook formulation", workers)
		}
	}
}

// TestSumChunkedBitIdentical compares the chunked parallel Sum against the
// sequential fold on an odd-sized slice.
func TestSumChunkedBitIdentical(t *testing.T) {
	ctx, err := NewContext(TestParams)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := ctx.GenerateKeys(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cts := make([]*Ciphertext, 2*minParallelSum+5)
	for i := range cts {
		if cts[i], err = ctx.EncryptValues(rand.Reader, kp.PK, []uint64{uint64(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := ctx.sumRange(cts)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(4)
	par, err := ctx.Sum(cts)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	if !polyEq(seq.C0, par.C0) || !polyEq(seq.C1, par.C1) {
		t.Fatal("chunked parallel Sum differs from sequential fold")
	}
}

// TestEncryptDeterministicReader: with a fixed randomness stream the batched
// encryption is a pure function — two runs give byte-identical ciphertexts.
func TestEncryptDeterministicReader(t *testing.T) {
	ctx, err := NewContext(TestParams)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := ctx.GenerateKeys(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ctx.Encode([]uint64{9, 8, 7})
	if err != nil {
		t.Fatal(err)
	}
	enc := func() *Ciphertext {
		ct, err := ctx.Encrypt(newCounterReader(), kp.PK, m)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	a, b := enc(), enc()
	if !polyEq(a.C0, b.C0) || !polyEq(a.C1, b.C1) {
		t.Fatal("encryption with a fixed randomness stream is not deterministic")
	}
}

// counterReader is a deterministic byte stream (not thread-safe on purpose:
// Encrypt samples its randomness sequentially before any parallel work).
type counterReader struct {
	n   uint64
	buf bytes.Buffer
}

func newCounterReader() *counterReader { return &counterReader{} }

func (c *counterReader) Read(p []byte) (int, error) {
	for c.buf.Len() < len(p) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], c.n*0x9e3779b97f4a7c15+7)
		c.n++
		c.buf.Write(b[:])
	}
	return c.buf.Read(p)
}
