package mpc

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"testing"
)

// TestDealerKnownAnswer holds the dealer to AES-256-CTR: under a fixed key
// and a zero IV, its words are the keystream's 8-byte little-endian words,
// across a block refill.
func TestDealerKnownAnswer(t *testing.T) {
	key := make([]byte, dealerKeyBytes)
	for i := range key {
		key[i] = byte(i)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*randBlock+64)
	cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(want, want)
	e := newEngine(t, 5)
	e.work = e.newWorkspace(key)
	for i := 0; i < len(want)/8; i++ {
		if got, w := e.drawWord(), binary.LittleEndian.Uint64(want[8*i:]); got != w {
			t.Fatalf("word %d: dealer %#x, AES-256-CTR keystream %#x", i, got, w)
		}
	}
}

// TestDealerKeysDiffer checks that each engine keys its own stream: two
// fresh engines' first blocks differ.
func TestDealerKeysDiffer(t *testing.T) {
	a, b := newEngine(t, 5), newEngine(t, 5)
	same := 0
	for i := 0; i < randBlock/8; i++ {
		if a.drawWord() == b.drawWord() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("two fresh engines drew %d equal words in their first %d bytes", same, randBlock)
	}
}
