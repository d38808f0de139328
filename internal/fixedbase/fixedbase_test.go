package fixedbase

import (
	"bytes"
	"math/big"
	"testing"

	"arboretum/internal/benchrand"
)

// littleEndian reads exp as the little-endian integer the comb walks.
func littleEndian(exp []byte) *big.Int {
	be := make([]byte, len(exp))
	for i, b := range exp {
		be[len(exp)-1-i] = b
	}
	return new(big.Int).SetBytes(be)
}

// TestExpMatchesExp holds the comb walk to big.Int.Exp at the two sizes its
// callers use — ahe's 512-bit randomizer exponents over a 1024-bit n², and
// vsr's 1536-bit commitment exponents over a 1536-bit P — on all-zero,
// all-0xff, short and random exponents, with the scratch reused throughout.
func TestExpMatchesExp(t *testing.T) {
	rng := benchrand.New(7)
	for _, size := range []struct {
		name            string
		modBits, expLen int
	}{
		{"ahe", 1024, 64},
		{"vsr", 1536, 192},
	} {
		t.Run(size.name, func(t *testing.T) {
			mb := make([]byte, size.modBits/8)
			if _, err := rng.Read(mb); err != nil {
				t.Fatal(err)
			}
			mb[0] |= 0x80
			mb[len(mb)-1] |= 1
			m := new(big.Int).SetBytes(mb)
			g := big.NewInt(4)
			tab := New(g, m, size.expLen)
			exps := [][]byte{
				make([]byte, size.expLen),
				bytes.Repeat([]byte{0xff}, size.expLen),
				{0x01},
				{0xf0, 0x0f},
			}
			for i := 0; i < 20; i++ {
				e := make([]byte, size.expLen)
				if _, err := rng.Read(e); err != nil {
					t.Fatal(err)
				}
				exps = append(exps, e)
			}
			var z, mul, quo big.Int
			for _, e := range exps {
				x := littleEndian(e)
				tab.Exp(&z, &mul, &quo, e)
				if want := new(big.Int).Exp(g, x, m); z.Cmp(want) != 0 {
					t.Fatalf("x = %x: comb %v, Exp %v", x, &z, want)
				}
			}
		})
	}
}
