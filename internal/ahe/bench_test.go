package ahe

// Benchmarks for the parallelized hot paths. Run with -cpu to compare the
// sequential fallback against the worker pool, e.g.
//
//	go test ./internal/ahe -bench 'Encrypt(Vector|Packed)|Sum' -cpu 1,4
//
// At -cpu 1 the pool takes its sequential fast path, so that column is the
// pre-parallel baseline.
//
// All randomness comes from internal/benchrand so every run measures the
// same keys and plaintexts (the randsource invariant for bench files).

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"testing"

	"arboretum/internal/benchrand"
)

func benchKey(b *testing.B) *PrivateKey {
	b.Helper()
	sk, err := GenerateKey(benchrand.New(1), 512)
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

// BenchmarkEncryptVector times the device-side input step: one-hot encrypting
// a 64-category row (64 Paillier encryptions per iteration).
func BenchmarkEncryptVector(b *testing.B) {
	pk := &benchKey(b).PublicKey
	rng := benchrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.EncryptVector(rng, 64, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncryptPacked times the device-side input step as the runtime
// runs it: one packed one-hot row at collect-wide's 2048 devices, which
// holds 16 or 32 categories in one ciphertext.
func BenchmarkEncryptPacked(b *testing.B) {
	pk := &benchKey(b).PublicKey
	for _, cells := range []int{16, 32} {
		codec, err := pk.NewPacking(2048, cells)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("C=%d", cells), func(b *testing.B) {
			rng := benchrand.New(2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.Encrypt(rng, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchKey2048 caches a deployment-size 2048-bit keypair (keygen at this
// size takes seconds, so share it across the 2048-bit benchmarks).
var (
	key2048Once sync.Once
	key2048     *PrivateKey
)

func benchKey2048(b *testing.B) *PrivateKey {
	b.Helper()
	key2048Once.Do(func() {
		sk, err := GenerateKey(benchrand.New(3), 2048)
		if err != nil {
			panic(err)
		}
		key2048 = sk
	})
	return key2048
}

// BenchmarkDecrypt2048 times one decryption at the deployment key size —
// the committee-side kernel of AHE-sum plans.
func BenchmarkDecrypt2048(b *testing.B) {
	sk := benchKey2048(b)
	ct, err := sk.Encrypt(benchrand.New(4), big.NewInt(123456))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sk.Decrypt(ct)
		if err != nil {
			b.Fatal(err)
		}
		if m.Int64() != 123456 {
			b.Fatalf("decrypted %v", m)
		}
	}
}

// BenchmarkCommitteeDecrypt times one decryption at the runtime's 512-bit
// key under the key a committee rebuilds: KeyFromPrime's, which carries the
// factorization and takes the CRT path, and FromSecrets', the λ/μ path
// committees took when they shared λ.
func BenchmarkCommitteeDecrypt(b *testing.B) {
	sk := benchKey(b)
	fromPrime, err := KeyFromPrime(&sk.PublicKey, sk.Prime())
	if err != nil {
		b.Fatal(err)
	}
	ct, err := sk.Encrypt(benchrand.New(4), big.NewInt(-123456))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name string
		sk   *PrivateKey
	}{
		{"KeyFromPrime", fromPrime},
		{"FromSecrets", FromSecrets(&sk.PublicKey, sk.Lambda(), sk.Mu())},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := k.sk.Decrypt(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncrypt2048 times one encryption at the deployment key size —
// the device-side kernel of AHE-sum plans.
func BenchmarkEncrypt2048(b *testing.B) {
	sk := benchKey2048(b)
	pk := &sk.PublicKey
	m := big.NewInt(1)
	rng := benchrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(rng, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSum times the aggregator's fold over 1024 ciphertexts.
func BenchmarkSum(b *testing.B) {
	sk := benchKey(b)
	pk := &sk.PublicKey
	rng := benchrand.New(6)
	cts := make([]*Ciphertext, 1024)
	for i := range cts {
		ct, err := pk.Encrypt(rng, big.NewInt(int64(i%3)))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	b.ResetTimer()
	var got *Ciphertext
	for i := 0; i < b.N; i++ {
		var err error
		got, err = pk.Sum(cts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m, err := sk.Decrypt(got)
	if err != nil {
		b.Fatal(err)
	}
	if m.Int64() != 1023 { // sum of i%3 over i = 0..1023
		b.Fatalf("sum decrypted to %v, want 1023", m)
	}
}

// BenchmarkGenerateKey times one 512-bit key, the runtime's default: two
// prime searches side by side and the fixed-base table, sized for a gateway
// job's 104 encryptions (96 packed rows and 8 re-encryptions, the 8 × 5
// comb) and for no bound (9 × 8, what GenerateKey builds). Compare -cpu 1,2:
// the primes and the table's groups share the pool.
func BenchmarkGenerateKey(b *testing.B) {
	for _, c := range []struct {
		name        string
		encryptions int
	}{
		{"encryptions=104", 104},
		{"unbounded", math.MaxInt},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := benchrand.New(7)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GenerateKeyFor(rng, 512, c.encryptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRandomPrime times one 256-bit prime, a 512-bit key's factor: the
// trial-division filter and ProbablyPrime(20) on the survivors.
func BenchmarkRandomPrime(b *testing.B) {
	rng := benchrand.New(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := randomPrime(rng, 256); err != nil {
			b.Fatal(err)
		}
	}
}
