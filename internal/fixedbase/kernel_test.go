package fixedbase

import (
	"fmt"
	"math/big"
	"math/bits"
	"testing"

	"arboretum/internal/benchrand"
)

// words returns v as exactly k words.
func words(v *big.Int, k int) []big.Word {
	w := make([]big.Word, k)
	copy(w, v.Bits())
	return w
}

// TestStepKernelMatchesPortable holds the step to math/big's x·y·R⁻¹ mod m
// on the kernel, where this CPU runs it, and on the portable row loop, at
// every width from 8 to 64 words whose rows the kernel takes: over a random
// modulus and one whose top word is all ones, with operands random, at 0
// and 1, and just below m, where the sum before the last subtraction
// carries into w[2k]. The kernel's w[2k] must carry at least once.
func TestStepKernelMatchesPortable(t *testing.T) {
	if !haveADX {
		t.Log("no ADX and BMI2 here: checking the portable step alone")
	}
	rng := benchrand.New(50)
	for _, k := range []int{8, 16, 24, 32, 64} {
		random := oddModulus(t, rng, k*bits.UintSize)
		carried := false
		for _, m := range []*big.Int{random, withTopWord(random, ^big.Word(0))} {
			tab := New(big.NewInt(2), m, 1, 1) // a table only to step on
			fast := tab.kernel
			rInv := new(big.Int).Lsh(big.NewInt(1), uint(k*bits.UintSize))
			rInv.ModInverse(rInv, m)
			one := big.NewInt(1)
			near := []*big.Int{new(big.Int).Sub(m, one), new(big.Int).Sub(m, big.NewInt(2)), new(big.Int).Rsh(m, 1)}
			pairs := [][2]*big.Int{{big.NewInt(0), near[0]}, {one, one}, {near[0], near[0]}, {near[0], near[1]}, {near[1], near[2]}}
			for i := 0; i < 50; i++ {
				x := new(big.Int).SetBytes(randomBytes(t, rng, 8*k))
				y := new(big.Int).SetBytes(randomBytes(t, rng, 8*k))
				pairs = append(pairs, [2]*big.Int{x.Mod(x, m), y.Mod(y, m)})
			}
			w := make([]big.Word, 2*k+1)
			for _, p := range pairs {
				x, y := words(p[0], k), words(p[1], k)
				want := new(big.Int).Mul(p[0], p[1])
				want.Mul(want, rInv).Mod(want, m)
				for _, kernel := range []bool{false, true} {
					if kernel && !fast {
						continue
					}
					tab.kernel = kernel
					for i := range w {
						w[i] = ^big.Word(0) // the step must not read stale words
					}
					z := make([]big.Word, k)
					tab.step(z, x, y, w)
					if got := new(big.Int).SetBits(z); got.Cmp(want) != 0 {
						t.Fatalf("%d words, kernel %v, m = %x, x = %x, y = %x: step %x, want %x", k, kernel, m, p[0], p[1], got, want)
					}
					carried = carried || (kernel && w[2*k] != 0)
				}
			}
		}
		if haveADX && !carried {
			t.Errorf("%d words: the kernel never carried into w[2k]", k)
		}
	}
}

// BenchmarkStep times one Montgomery step at n² of a 512-bit key (16
// words), vsr's P (24), and n² of 1,024- and 2,048-bit keys (32 and 64), on
// the kernel where this CPU runs it and on the portable row loop.
func BenchmarkStep(b *testing.B) {
	for _, k := range []int{16, 24, 32, 64} {
		rng := benchrand.New(uint64(k))
		m := oddModulus(b, rng, k*bits.UintSize)
		x := new(big.Int).SetBytes(randomBytes(b, rng, 8*k))
		y := new(big.Int).SetBytes(randomBytes(b, rng, 8*k))
		xw, yw := words(x.Mod(x, m), k), words(y.Mod(y, m), k)
		w := make([]big.Word, 2*k+1)
		tab := New(big.NewInt(2), m, 1, 1) // a table only to step on
		fast := tab.kernel
		for _, kernel := range []bool{true, false} {
			name := "portable"
			if kernel {
				name = "kernel"
			}
			b.Run(fmt.Sprintf("%s-%d", name, k), func(b *testing.B) {
				if kernel && !fast {
					b.Skip("no ADX and BMI2 on this CPU")
				}
				tab.kernel = kernel
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tab.step(xw, xw, yw, w)
				}
			})
		}
	}
}
