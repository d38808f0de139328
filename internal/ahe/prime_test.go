package ahe

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"testing"
	"time"

	"arboretum/internal/benchrand"
)

// shapeCandidate shapes bytes into a prime candidate of the given bit length
// as crypto/rand.Prime (go1.24) does: the reference randomPrime must follow.
func shapeCandidate(b []byte, bits int) *big.Int {
	top := uint(bits % 8)
	if top == 0 {
		top = 8
	}
	b[0] &= uint8(int(1<<top) - 1)
	if top >= 2 {
		b[0] |= 3 << (top - 2)
	} else {
		b[0] |= 1
		if len(b) > 1 {
			b[1] |= 0x80
		}
	}
	b[len(b)-1] |= 1
	return new(big.Int).SetBytes(b)
}

// TestRandomPrime draws primes at the edges of bits mod 8: each has exactly
// bits bits, its top two set, is odd and passes ProbablyPrime(20), and it is
// the first candidate of the reader's stream, shaped as crypto/rand.Prime
// shapes one, that ProbablyPrime(20) accepts — so the search draws i.i.d.
// candidates and its filter skips no prime.
func TestRandomPrime(t *testing.T) {
	for _, bits := range []int{64, 65, 71, 128, 256} {
		for seed := uint64(0); seed < 3; seed++ {
			p, err := randomPrime(benchrand.New(seed), bits)
			if err != nil {
				t.Fatal(err)
			}
			if p.BitLen() != bits || p.Bit(bits-2) != 1 || p.Bit(0) != 1 || !p.ProbablyPrime(20) {
				t.Fatalf("%d bits, seed %d: %x is not an odd %d-bit prime with its top two bits set", bits, seed, p, bits)
			}
			ref := benchrand.New(seed)
			want := new(big.Int)
			for {
				b := make([]byte, (bits+7)/8)
				if _, err := io.ReadFull(ref, b); err != nil {
					t.Fatal(err)
				}
				if want = shapeCandidate(b, bits); want.ProbablyPrime(20) {
					break
				}
			}
			if p.Cmp(want) != 0 {
				t.Fatalf("%d bits, seed %d: randomPrime %x, first prime candidate of the stream %x", bits, seed, p, want)
			}
		}
	}
}

// sieveDivides reports whether an odd prime below sieveBound divides x, by
// trial division from scratch.
func sieveDivides(x *big.Int) bool {
	var r big.Int
	for p := int64(3); p < sieveBound; p += 2 {
		if big.NewInt(p).ProbablyPrime(20) && r.Mod(x, big.NewInt(p)).Sign() == 0 {
			return true
		}
	}
	return false
}

// words returns x's 64-bit words, most significant first.
func words(x *big.Int) []uint64 {
	w := make([]uint64, (x.BitLen()+63)/64)
	for j := range w {
		w[len(w)-1-j] = new(big.Int).Rsh(x, uint(64*j)).Uint64()
	}
	return w
}

// TestSieveRejectsOnlySmallFactors holds the filter to trial division: over
// every odd number in [2^20, 2^20 + 2^16) it rejects exactly those with an
// odd prime factor below sieveBound and never a prime. On multi-word numbers
// it finds every sieve prime as the factor of a two- and a five-word
// product with primes above the sieve, passes those primes and their
// product, and agrees with big.Int's remainders on random numbers.
func TestSieveRejectsOnlySmallFactors(t *testing.T) {
	var small []uint64
	for p := uint64(3); p < sieveBound; p += 2 {
		if big.NewInt(int64(p)).ProbablyPrime(20) {
			small = append(small, p)
		}
	}
	for x := uint64(1<<20 + 1); x < 1<<20+1<<16; x += 2 {
		want := false
		for _, p := range small {
			if x%p == 0 {
				want = true
				break
			}
		}
		got := hasSmallFactor([]uint64{x})
		if got != want {
			t.Fatalf("%d: filter rejects = %v, trial division finds a factor = %v", x, got, want)
		}
		if got && new(big.Int).SetUint64(x).ProbablyPrime(20) {
			t.Fatalf("%d: the filter rejects a prime", x)
		}
	}
	var large []*big.Int // primes above the sieve, so with no small factor
	for i, bits := range []int{100, 300} {
		q, err := randomPrime(benchrand.New(uint64(20+i)), bits)
		if err != nil {
			t.Fatal(err)
		}
		large = append(large, q)
	}
	for _, x := range append(large, new(big.Int).Mul(large[0], large[1])) {
		if hasSmallFactor(words(x)) {
			t.Fatalf("%x: the filter rejects a number with no factor below %d", x, sieveBound)
		}
	}
	for _, p := range small {
		for _, q := range large {
			if x := new(big.Int).Mul(q, new(big.Int).SetUint64(p)); !hasSmallFactor(words(x)) {
				t.Fatalf("%d·%x: the filter misses the factor %d", p, q, p)
			}
		}
	}
	rng := benchrand.New(11)
	for i := 0; i < 100; i++ {
		b := make([]byte, 8*(1+i%5))
		if _, err := rng.Read(b); err != nil {
			t.Fatal(err)
		}
		b[0] |= 0x80
		x := new(big.Int).SetBytes(b)
		if got, want := hasSmallFactor(words(x)), sieveDivides(x); got != want {
			t.Fatalf("%x: filter rejects = %v, trial division finds a factor = %v", x, got, want)
		}
	}
}

// errReader fails every read after its first n bytes.
type errReader struct{ n int }

var errRead = errors.New("reader failed")

func (r *errReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errRead
	}
	k := min(len(p), r.n)
	r.n -= k
	clear(p[:k])
	return k, nil
}

// TestRandomPrimeReaderError checks that a reader's error, on the first
// candidate or a later one, comes back from randomPrime and GenerateKey.
func TestRandomPrimeReaderError(t *testing.T) {
	for _, n := range []int{0, 5, 32 * 16} {
		if _, err := randomPrime(&errReader{n: n}, 256); !errors.Is(err, errRead) {
			t.Errorf("randomPrime after %d bytes: %v, want the reader's error", n, err)
		}
		if _, err := GenerateKey(&errReader{n: n}, 512); !errors.Is(err, errRead) {
			t.Errorf("GenerateKey after %d bytes: %v, want the reader's error", n, err)
		}
	}
}

// TestGenerateKeyOddBits checks that an odd key size is refused. Two primes
// of ⌊bits/2⌋ bits with their top two bits set always make an n of even
// length, so a search for an odd one would never end: the call runs under a
// deadline, so that such a search fails the test rather than hanging it.
func TestGenerateKeyOddBits(t *testing.T) {
	for _, bits := range []int{129, 257, 513} {
		done := make(chan error, 1)
		go func() {
			_, err := GenerateKey(rand.Reader, bits)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("GenerateKey(%d) made a key", bits)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("GenerateKey(%d) did not return within 10 s", bits)
		}
	}
}

// TestRandomPrimeGolden pins randomPrime's output for seeded readers to what
// it returned before its base-2 pre-test: the pre-test rejects only
// composites ProbablyPrime(20) rejects too, so the same stream yields the
// same prime.
func TestRandomPrimeGolden(t *testing.T) {
	for _, c := range []struct {
		bits int
		seed uint64
		want string
	}{
		{64, 100, "ee66bc12f4906aad"},
		{64, 101, "cd8bc57cb47da431"},
		{64, 102, "ec42b9aaa042484f"},
		{128, 100, "dc6488be3f75fdc2d51c3e3456ba45a9"},
		{128, 101, "fe3f7c64a4713e401984107d2b4b4575"},
		{128, 102, "ca1a61c71b614a6bc5b694cd75b64c07"},
		{256, 100, "fd8a40045d7a9559ef1348b3674a5f9d72d72230ec38a0b0576c976bc112927d"},
		{256, 101, "f47eaaf2feb3e1f20a03891f73ba1a4dcd5671841151caf812fc1be51a9fd18d"},
		{256, 102, "f44852c95f02e8e66e20e614d6c4f73609d17819d1c086dd0c4b60b103d5efbb"},
	} {
		p, err := randomPrime(benchrand.New(c.seed), c.bits)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Text(16); got != c.want {
			t.Errorf("%d bits, seed %d: randomPrime %s, want %s", c.bits, c.seed, got, c.want)
		}
	}
}
