package ahe

// Fuzz and hardening tests for the Paillier wire formats: arbitrary input to
// the ciphertext and public-key decoders must error cleanly (no panics), and
// accepted inputs must re-marshal to the same bytes and not alias the
// caller's buffer.

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

func FuzzAHECiphertextUnmarshal(f *testing.F) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(42))
	if err != nil {
		f.Fatal(err)
	}
	valid, err := ct.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append(append([]byte(nil), valid...), 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Ciphertext
		if err := c.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted ciphertext failed: %v", err)
		}
		// readBig rejects non-canonical encodings, so accepted input must
		// re-marshal to the exact same bytes.
		if !bytes.Equal(out, data) {
			t.Fatal("re-marshal differs from accepted input")
		}
	})
}

func FuzzPublicKeyUnmarshal(f *testing.F) {
	sk, err := GenerateKey(rand.Reader, 128)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := sk.PublicKey.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:2])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 9})
	f.Add(appendBig(nil, new(big.Int).Lsh(one, 200))) // plausible size, but even
	f.Fuzz(func(t *testing.T, data []byte) {
		var pk PublicKey
		if err := pk.UnmarshalBinary(data); err != nil {
			return
		}
		if pk.N.BitLen() < 128 {
			t.Fatal("accepted implausibly small modulus")
		}
		if pk.N.Bit(0) == 0 {
			t.Fatal("accepted an even modulus")
		}
		want := new(big.Int).Mul(pk.N, pk.N)
		if pk.N2.Cmp(want) != 0 {
			t.Fatal("derived n² is inconsistent")
		}
		out, err := pk.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("re-marshal differs from accepted input")
		}
	})
}

// TestAHEUnmarshalDoesNotAliasInput mutates the input buffer after a
// successful unmarshal and checks the decoded values are unaffected.
func TestAHEUnmarshalDoesNotAliasInput(t *testing.T) {
	sk := testKeyPair(t)
	ct, err := sk.Encrypt(rand.Reader, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Ciphertext
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Set(back.C)
	for i := range data {
		data[i] ^= 0xff
	}
	if back.C.Cmp(want) != 0 {
		t.Fatal("ciphertext aliases the unmarshal input buffer")
	}

	pkData, err := sk.PublicKey.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var pk PublicKey
	if err := pk.UnmarshalBinary(pkData); err != nil {
		t.Fatal(err)
	}
	wantN := new(big.Int).Set(pk.N)
	for i := range pkData {
		pkData[i] ^= 0xff
	}
	if pk.N.Cmp(wantN) != 0 {
		t.Fatal("public key aliases the unmarshal input buffer")
	}
}
