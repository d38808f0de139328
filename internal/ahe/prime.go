package ahe

// The prime search behind every key: the candidates crypto/rand.Prime draws,
// with the small-factor rejections done by trial division first.
//
// crypto/rand.Prime (go1.24) hands each odd candidate straight to
// ProbablyPrime, whose own trial division stops at 53; every survivor of
// that pays a Miller–Rabin exponentiation before it is rejected, about 25
// per 256-bit prime. randomPrime rejects a candidate with an odd prime
// factor below sieveBound first, which leaves about 12 candidates per prime
// for ProbablyPrime(20), the unchanged check. Of those, a composite is
// rejected by one base-2 Fermat test before ProbablyPrime, whose first act
// is to seed a math/rand source (about 10 µs) for its Miller–Rabin bases:
// every prime passes the Fermat test, and so does every composite
// ProbablyPrime accepts, since its Baillie–PSW half includes the strong
// base-2 test, so the pre-test changes no result. Each attempt draws a fresh
// candidate shaped exactly as crypto/rand.Prime shapes its bytes, and the
// filter rejects only composites, so the primes it returns are distributed
// as crypto/rand.Prime's.

import (
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"math/bits"
)

// sieveBound bounds the odd primes randomPrime trial-divides by. Every
// candidate has at least 64 bits, so it is above all of them and a sieve
// prime dividing it proves it composite.
const sieveBound = 1 << 12

// sieveGroup is a run of consecutive sieve primes whose product fits a word,
// so one division chain over the candidate's words gives its residue mod
// all of them. For each prime p it holds p⁻¹ mod 2^64 and ⌊(2^64−1)/p⌋: a
// word r is a multiple of p exactly when r·p⁻¹ mod 2^64 is at most the
// latter (Granlund and Montgomery), so no further division is needed.
type sieveGroup struct {
	prod   uint64
	inv    []uint64
	within []uint64
}

// sieve holds the odd primes below sieveBound, smallest first, so a
// candidate with a small factor is rejected after the fewest divisions.
var sieve = newSieve()

func newSieve() []sieveGroup {
	composite := make([]bool, sieveBound)
	var groups []sieveGroup
	g := sieveGroup{prod: 1}
	for p := uint64(3); p < sieveBound; p += 2 {
		if composite[p] {
			continue
		}
		for q := p * p; q < sieveBound; q += 2 * p {
			composite[q] = true
		}
		if hi, lo := bits.Mul64(g.prod, p); hi != 0 {
			groups = append(groups, g)
			g = sieveGroup{prod: p}
		} else {
			g.prod = lo
		}
		// Newton's iteration doubles the correct low bits of p⁻¹ each
		// round, from the 3 that p itself gets right.
		inv := p
		for correct := 3; correct < 64; correct *= 2 {
			inv *= 2 - p*inv
		}
		g.inv = append(g.inv, inv)
		g.within = append(g.within, ^uint64(0)/p)
	}
	return append(groups, g)
}

// hasSmallFactor reports whether the number whose 64-bit words, most
// significant first, are w has an odd prime factor below sieveBound.
func hasSmallFactor(w []uint64) bool {
	for i := range sieve {
		g := &sieve[i]
		var r uint64
		for _, x := range w {
			_, r = bits.Div64(r, x, g.prod)
		}
		for j, inv := range g.inv {
			if r*inv <= g.within[j] {
				return true
			}
		}
	}
	return false
}

// randomPrime returns a prime of exactly bits bits, its top two bits set,
// that passes ProbablyPrime(20). Each candidate is the next ⌈bits/8⌉ bytes
// of random, one io.ReadFull each, shaped as crypto/rand.Prime shapes them:
// the excess high bits cleared, the top two set, the low bit set. A reader
// error is returned as it is.
func randomPrime(random io.Reader, bits int) (*big.Int, error) {
	if bits < 64 {
		return nil, errors.New("ahe: prime size must be at least 64 bits")
	}
	size := (bits + 7) / 8
	top := uint(bits % 8)
	if top == 0 {
		top = 8
	}
	words := make([]uint64, (size+7)/8)
	padded := make([]byte, 8*len(words)) // the candidate, zero-extended to whole words
	b := padded[len(padded)-size:]
	p, fermat, pm1 := new(big.Int), new(big.Int), new(big.Int)
	for {
		if _, err := io.ReadFull(random, b); err != nil {
			return nil, err
		}
		b[0] &= 1<<top - 1
		if top >= 2 {
			b[0] |= 3 << (top - 2)
		} else {
			b[0] |= 1
			b[1] |= 0x80
		}
		b[size-1] |= 1
		for i := range words {
			words[i] = binary.BigEndian.Uint64(padded[8*i:])
		}
		if hasSmallFactor(words) {
			continue
		}
		p.SetBytes(b)
		if fermat.Exp(two, pm1.Sub(p, one), p).Cmp(one) != 0 {
			continue
		}
		if p.ProbablyPrime(20) {
			return p, nil
		}
	}
}
