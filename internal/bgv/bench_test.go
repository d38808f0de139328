package bgv

// Benchmarks for the NTT kernels and the ring's hot paths. Run with -cpu to
// compare the sequential fallback against the worker pool:
//
//	go test ./internal/bgv -bench 'Mul|Sum' -cpu 1,4
//
// At -cpu 1 the pool takes its sequential fast path (the pre-parallel
// baseline).
//
// All randomness comes from internal/benchrand so every run measures the
// same keys and ciphertexts (the randsource invariant for bench files).

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"arboretum/internal/benchrand"
)

// benchParams is the one-prime ring at degree 4096: the un-tagged benchmarks
// below (and bgv_test.go's, at TestParams) run the ring at L = 1.
var benchParams = Params{N: 1 << 12, T: 65537, Qi: []uint64{Q}}

func benchContext(b *testing.B) *Context {
	b.Helper()
	ctx, err := NewContext(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// uniformPoly draws one uniform polynomial mod Q (a whole ring element at
// L = 1).
func uniformPoly(tb testing.TB, ctx *Context, r io.Reader) Poly {
	tb.Helper()
	p := make(Poly, ctx.l*ctx.n)
	if err := ctx.sampleUniform(r, p); err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkNTTForward times a single forward transform of one degree-4096
// polynomial — the core single-core kernel every higher-level operation is
// built from.
func BenchmarkNTTForward(b *testing.B) {
	ctx := benchContext(b)
	p := uniformPoly(b, ctx, benchrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ntt[0].Forward(p)
	}
}

// BenchmarkNTTInverse times a single inverse transform of one degree-4096
// polynomial.
func BenchmarkNTTInverse(b *testing.B) {
	ctx := benchContext(b)
	p := uniformPoly(b, ctx, benchrand.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.ntt[0].Inverse(p)
	}
}

// BenchmarkNTTBatch transforms a batch of 64 degree-4096 polynomials — the
// shape of a committee decrypting a slice of the aggregate.
func BenchmarkNTTBatch(b *testing.B) {
	ctx := benchContext(b)
	rng := benchrand.New(3)
	polys := make([]Poly, 64)
	for i := range polys {
		polys[i] = uniformPoly(b, ctx, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range polys {
			ctx.ntt[0].Forward(p)
		}
		for _, p := range polys {
			ctx.ntt[0].Inverse(p)
		}
	}
}

// BenchmarkMulLarge times one degree-4096 ciphertext multiplication with
// relinearization (the FHE compute vignette's dominant operation).
func BenchmarkMulLarge(b *testing.B) {
	ctx := benchContext(b)
	rng := benchrand.New(4)
	kp, err := ctx.GenerateKeys(rng)
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]uint64, 32)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	ct1, err := ctx.EncryptValues(rng, kp.PK, vals)
	if err != nil {
		b.Fatal(err)
	}
	ct2, err := ctx.EncryptValues(rng, kp.PK, []uint64{3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Mul(ct1, ct2, kp.RLK); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncryptLarge times one degree-4096 encryption (one forward and
// two inverse transforms against the key's cached NTT forms).
func BenchmarkEncryptLarge(b *testing.B) {
	ctx := benchContext(b)
	rng := benchrand.New(6)
	kp, err := ctx.GenerateKeys(rng)
	if err != nil {
		b.Fatal(err)
	}
	m, err := ctx.Encode([]uint64{1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Encrypt(rng, kp.PK, m); err != nil {
			b.Fatal(err)
		}
	}
}

// --- multi-prime ring benchmarks ---
//
// Each of these runs under a /ring=<degree>x<primes> sub-name, so the rows
// distinguish the test ring from the paper's deployment ring (2^15, 135-bit
// composite modulus). The paper-scale rows are the point: Table 1's FHE
// column is measured on this machine, not extrapolated from a reduced ring.

var benchRNSRings = []Params{TestRNSParams, PaperRNSParams}

func ringTag(p Params) string {
	return fmt.Sprintf("ring=%dx%d", p.N, len(p.Qi))
}

type rnsBenchState struct {
	ctx  *Context
	keys *KeyPair
	a, b *Ciphertext
	m    Poly
}

var (
	rnsBenchMu    sync.Mutex
	rnsBenchCache = map[int]*rnsBenchState{}
)

// benchRNSState builds (once per ring) the context, keys, and two
// ciphertexts every RNS benchmark reuses — paper-scale key generation is
// ~10^2 ms, far too slow to repeat per benchmark.
func benchRNSState(b *testing.B, p Params) *rnsBenchState {
	b.Helper()
	rnsBenchMu.Lock()
	defer rnsBenchMu.Unlock()
	if s, ok := rnsBenchCache[p.N]; ok {
		return s
	}
	ctx, err := NewContext(p)
	if err != nil {
		b.Fatal(err)
	}
	rng := benchrand.New(uint64(p.N))
	keys, err := ctx.GenerateKeys(rng)
	if err != nil {
		b.Fatal(err)
	}
	m, err := ctx.Encode([]uint64{1, 2, 3, 4})
	if err != nil {
		b.Fatal(err)
	}
	ctA, err := ctx.Encrypt(rng, keys.PK, m)
	if err != nil {
		b.Fatal(err)
	}
	ctB, err := ctx.Encrypt(rng, keys.PK, m)
	if err != nil {
		b.Fatal(err)
	}
	s := &rnsBenchState{ctx: ctx, keys: keys, a: ctA, b: ctB, m: m}
	rnsBenchCache[p.N] = s
	return s
}

// BenchmarkRNSEncrypt times one RNS encryption per ring.
func BenchmarkRNSEncrypt(b *testing.B) {
	for _, p := range benchRNSRings {
		b.Run(ringTag(p), func(b *testing.B) {
			s := benchRNSState(b, p)
			rng := benchrand.New(7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ctx.Encrypt(rng, s.keys.PK, s.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRNSMul times one ciphertext multiplication with relinearization
// per ring — at the paper ring, the number behind the cost model's HEMulCt.
func BenchmarkRNSMul(b *testing.B) {
	for _, p := range benchRNSRings {
		b.Run(ringTag(p), func(b *testing.B) {
			s := benchRNSState(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ctx.Mul(s.a, s.b, s.keys.RLK); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRNSAdd times one homomorphic addition per ring.
func BenchmarkRNSAdd(b *testing.B) {
	for _, p := range benchRNSRings {
		b.Run(ringTag(p), func(b *testing.B) {
			s := benchRNSState(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.ctx.Add(s.a, s.b); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
