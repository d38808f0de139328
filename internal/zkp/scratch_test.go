package zkp

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

func stmtAndWitness(dev int, q uint64, width int) (Statement, Witness) {
	s := Statement{Device: dev, QueryID: q, Claim: Claim{Kind: ClaimOneHot, VectorLen: width}}
	w := Witness{Vector: make([]int64, width)}
	w.Vector[dev%width] = 1
	return s, w
}

// TestScratchTagMatchesHMAC checks the pooled tag path is bit-identical to
// statementTag for short keys, block-length keys, and over-length keys (the
// hashed-key branch), across both claim kinds.
func TestScratchTagMatchesHMAC(t *testing.T) {
	sc := NewScratch()
	keys := [][]byte{
		[]byte("k"),
		bytes.Repeat([]byte{0xa5}, 32),
		bytes.Repeat([]byte{0x5a}, sha256.BlockSize),
		bytes.Repeat([]byte{0x3c}, sha256.BlockSize+17),
	}
	stmts := []Statement{
		{Device: 0, QueryID: 0, Claim: Claim{Kind: ClaimOneHot, VectorLen: 4}},
		{Device: 12345, QueryID: 999, Claim: Claim{Kind: ClaimOneHot, VectorLen: 64}},
		{Device: 7, QueryID: 3, Claim: Claim{Kind: ClaimRange, Lo: -10, Hi: 10}},
	}
	for _, key := range keys {
		for _, s := range stmts {
			want := statementTag(key, s)
			got := sc.tag(key, s)
			if got != want {
				t.Fatalf("scratch tag differs for key len %d, stmt %+v", len(key), s)
			}
			// Repeat with the same scratch: no state leaks between calls.
			if again := sc.tag(key, s); again != want {
				t.Fatalf("scratch tag not stable on reuse for key len %d", len(key))
			}
		}
	}
}

// TestProveKeyedCrossVerifies checks proofs from the pooled path verify under
// the map verifier and vice versa, on both Verify and VerifyScratch.
func TestProveKeyedCrossVerifies(t *testing.T) {
	key := []byte("device-key-0123456789abcdef01234")
	s, w := stmtAndWitness(3, 1, 8)

	classic, err := NewProver(key).Prove(s, w)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	var pooled Proof
	if err := ProveKeyed(sc, key, s, w, &pooled); err != nil {
		t.Fatal(err)
	}
	if pooled.tag != classic.tag {
		t.Fatal("pooled and classic proofs have different tags")
	}

	keyOf := func(dev int) []byte { return key }
	for name, mk := range map[string]func() *Verifier{
		"map":  func() *Verifier { return NewVerifier(map[int][]byte{3: key}) },
		"func": func() *Verifier { return NewVerifierFunc(keyOf, 0, 8) },
	} {
		v := mk()
		if !v.Verify(classic) {
			t.Fatalf("%s verifier rejects classic proof", name)
		}
		if v.Verify(classic) {
			t.Fatalf("%s verifier accepts replay", name)
		}
		v = mk()
		if !v.VerifyScratch(sc, &pooled) {
			t.Fatalf("%s verifier rejects pooled proof via scratch", name)
		}
		if v.VerifyScratch(sc, &pooled) {
			t.Fatalf("%s verifier accepts replay via scratch", name)
		}
	}

	// ProveKeyed on a false statement must fail and leave the slot invalid.
	var bad Proof
	if err := ProveKeyed(sc, key, s, Witness{Vector: make([]int64, 8)}, &bad); err == nil {
		t.Fatal("ProveKeyed accepted an unsatisfied claim")
	}
	if NewVerifier(map[int][]byte{3: key}).Verify(&bad) {
		t.Fatal("unproven slot verifies")
	}
}

// TestVerifierFuncRangeAndReplay checks the dense-bitset verifier's range
// gate and per-query replay independence.
func TestVerifierFuncRangeAndReplay(t *testing.T) {
	keys := map[int][]byte{}
	keyOf := func(dev int) []byte { return keys[dev] }
	v := NewVerifierFunc(keyOf, 100, 200)
	sc := NewScratch()
	for _, dev := range []int{100, 150, 199} {
		keys[dev] = []byte{byte(dev)}
		s, w := stmtAndWitness(dev, 9, 4)
		var p Proof
		if err := ProveKeyed(sc, keys[dev], s, w, &p); err != nil {
			t.Fatal(err)
		}
		if !v.VerifyScratch(sc, &p) {
			t.Fatalf("device %d in range rejected", dev)
		}
		if v.VerifyScratch(sc, &p) {
			t.Fatalf("device %d replay accepted", dev)
		}
		// A fresh query starts a fresh replay set.
		s2 := s
		s2.QueryID = 10
		var p2 Proof
		if err := ProveKeyed(sc, keys[dev], s2, w, &p2); err != nil {
			t.Fatal(err)
		}
		if !v.VerifyScratch(sc, &p2) {
			t.Fatalf("device %d rejected in new query", dev)
		}
	}
	for _, dev := range []int{99, 200, -1} {
		keys[dev] = []byte{byte(dev & 0xff)}
		s, w := stmtAndWitness((dev%4+4)%4, 9, 4)
		s.Device = dev
		var p Proof
		if err := ProveKeyed(sc, keys[dev], s, w, &p); err != nil {
			t.Fatal(err)
		}
		if v.VerifyScratch(sc, &p) {
			t.Fatalf("device %d outside range accepted", dev)
		}
	}
}

// BenchmarkVerifyScratch tracks the pooled prove+verify cost per device —
// the per-upload ZKP overhead of a streaming-ingest shard.
func BenchmarkVerifyScratch(b *testing.B) {
	key := bytes.Repeat([]byte{7}, 32)
	keyOf := func(dev int) []byte { return key }
	v := NewVerifierFunc(keyOf, 0, 1<<20)
	sc := NewScratch()
	s, w := stmtAndWitness(0, 1, 16)
	var p Proof
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Roll to a fresh query when the device range wraps, so the replay
		// set never rejects and the bitset stays 128 KiB.
		s.Device = i & (1<<20 - 1)
		s.QueryID = uint64(i >> 20)
		if err := ProveKeyed(sc, key, s, w, &p); err != nil {
			b.Fatal(err)
		}
		if !v.VerifyScratch(sc, &p) {
			b.Fatal("verify failed")
		}
	}
}
