package zkp

import "testing"

func oneHotStatement(device int, queryID uint64, n int) Statement {
	return Statement{Device: device, QueryID: queryID, Claim: Claim{Kind: ClaimOneHot, VectorLen: n}}
}

func setup() (*Prover, *Verifier) {
	key := []byte("device-0-key")
	return NewProver(key), NewVerifier(map[int][]byte{0: key})
}

func TestHonestOneHotProofVerifies(t *testing.T) {
	p, v := setup()
	proof, err := p.Prove(oneHotStatement(0, 1, 4), Witness{Vector: []int64{0, 0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Verify(proof) {
		t.Fatal("honest proof rejected")
	}
}

func TestMalformedOneHotRejectedAtProving(t *testing.T) {
	p, _ := setup()
	bad := [][]int64{
		{0, 0, 0, 0},  // no one
		{1, 1, 0, 0},  // two ones
		{0, 0, 2, 0},  // not 0/1
		{0, 1},        // wrong length
		{0, 0, -1, 0}, // negative
	}
	for _, w := range bad {
		if _, err := p.Prove(oneHotStatement(0, 1, 4), Witness{Vector: w}); err == nil {
			t.Errorf("malformed witness %v produced a proof", w)
		}
	}
}

func TestForgedProofRejected(t *testing.T) {
	_, v := setup()
	if v.Verify(Forge(oneHotStatement(0, 1, 4))) {
		t.Fatal("forged proof verified")
	}
}

func TestReplayRejected(t *testing.T) {
	p, v := setup()
	proof, _ := p.Prove(oneHotStatement(0, 7, 4), Witness{Vector: []int64{1, 0, 0, 0}})
	if !v.Verify(proof) {
		t.Fatal("first use rejected")
	}
	if v.Verify(proof) {
		t.Fatal("replay accepted")
	}
	// A different query ID is a fresh statement and needs a fresh proof.
	proof2, _ := p.Prove(oneHotStatement(0, 8, 4), Witness{Vector: []int64{1, 0, 0, 0}})
	if !v.Verify(proof2) {
		t.Fatal("fresh proof for new query rejected")
	}
}

func TestWrongKeyRejected(t *testing.T) {
	evil := NewProver([]byte("not-the-registered-key"))
	_, v := setup()
	proof, _ := evil.Prove(oneHotStatement(0, 1, 4), Witness{Vector: []int64{1, 0, 0, 0}})
	if v.Verify(proof) {
		t.Fatal("proof under wrong key verified")
	}
}

func TestUnknownDeviceRejected(t *testing.T) {
	p, v := setup()
	proof, _ := p.Prove(oneHotStatement(99, 1, 4), Witness{Vector: []int64{1, 0, 0, 0}})
	if v.Verify(proof) {
		t.Fatal("proof from unregistered device verified")
	}
}

func TestTamperedStatementRejected(t *testing.T) {
	p, v := setup()
	proof, _ := p.Prove(oneHotStatement(0, 1, 4), Witness{Vector: []int64{1, 0, 0, 0}})
	proof.Statement.QueryID = 99 // tamper after proving
	if v.Verify(proof) {
		t.Fatal("tampered statement verified")
	}
}

func TestNilProofRejected(t *testing.T) {
	_, v := setup()
	if v.Verify(nil) {
		t.Fatal("nil proof verified")
	}
}

func TestProofBytes(t *testing.T) {
	p, _ := setup()
	proof, _ := p.Prove(oneHotStatement(0, 1, 4), Witness{Vector: []int64{1, 0, 0, 0}})
	if proof.Bytes() != ProofSize {
		t.Errorf("Bytes() = %d, want %d", proof.Bytes(), ProofSize)
	}
}

func TestUnknownClaimKind(t *testing.T) {
	p, _ := setup()
	s := Statement{Device: 0, QueryID: 1, Claim: Claim{Kind: ClaimKind(42)}}
	if _, err := p.Prove(s, Witness{}); err == nil {
		t.Fatal("unknown claim kind produced a proof")
	}
}

func BenchmarkProveVerify(b *testing.B) {
	p, _ := setup()
	w := Witness{Vector: []int64{0, 1, 0, 0}}
	for i := 0; i < b.N; i++ {
		v := NewVerifier(map[int][]byte{0: []byte("device-0-key")})
		proof, err := p.Prove(oneHotStatement(0, uint64(i), 4), w)
		if err != nil {
			b.Fatal(err)
		}
		if !v.Verify(proof) {
			b.Fatal("verify failed")
		}
	}
}
