// Package ahe implements additively homomorphic encryption (Paillier).
//
// Arboretum inserts AHE for confidential values that are only ever added
// (Section 4.5): in the common one-hot-encoded plans, each device encrypts
// its input vector and the aggregator sums a billion ciphertexts without
// learning anything. A device's one-hot row travels packed (Packing, in
// packing.go): base-2^w digits of one plaintext, ⌈C/digits⌉ ciphertexts per
// row, which the key committee unpacks once per query. The paper's
// prototype uses the additive subset of BGV; we provide Paillier here
// because it is a real AHE scheme implementable on the standard library
// alone, with identical homomorphic semantics
// (E(a) ⊞ E(b) = E(a+b)). The cost model charges AHE operations at the
// paper's BGV-derived rates regardless of the concrete scheme, so the plan
// costs are unaffected by this substitution (see DESIGN.md).
//
// All modular arithmetic is math/big — Exp for the decryption and textbook
// encryption exponentiations, Montgomery steps on math/big's own addMulVVW
// for the fixed-base walk that forms the whole encryption product,
// Mul+QuoRem for the additive folds — on every platform; there is no second
// kernel (docs/KERNELS.md, "Why math/big").
//
// # Thread safety
//
// PublicKey and PrivateKey are immutable after creation: every method only
// reads them, so a single key may be shared freely across goroutines.
// Ciphertext values are not synchronized — callers must not mutate a
// ciphertext that another goroutine is reading. A Packing is immutable too,
// and encrypts a row's few ciphertexts on the calling goroutine.
// EncryptVector parallelizes internally across parallel.Workers(0)
// goroutines; its outputs are index-ordered, so they are bit-identical at
// any worker count. Randomness readers passed to
// EncryptVector are wrapped with a mutex unless they are crypto/rand.Reader,
// which is already safe for concurrent use. EncryptVector has no caller in
// the product: it is kept only for the benchmark module's per-layer replay
// (bench/replay.go), which prices C slot encryptions per device. See
// docs/CONCURRENCY.md.
package ahe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"sync"

	"arboretum/internal/parallel"
)

var (
	one  = big.NewInt(1)
	two  = big.NewInt(2)
	zero = big.NewInt(0)
)

// ctBox bundles a ciphertext header with its big.Int value so a hot-path
// result costs one struct allocation plus one limb allocation — the whole
// steady-state budget of encrypt.
type ctBox struct {
	ct Ciphertext
	v  big.Int
}

// newCiphertextFrom returns a fresh ciphertext holding a copy of v.
func newCiphertextFrom(v *big.Int) *Ciphertext {
	b := &ctBox{}
	b.v.Set(v)
	b.ct.C = &b.v
	return &b.ct
}

// PublicKey is a Paillier public key (n, g = n+1). It is immutable after
// key generation: all methods are safe for concurrent use, and
// EncryptVector fans work out over a pool internally.
type PublicKey struct {
	N  *big.Int // modulus
	N2 *big.Int // n^2, cached

	// fb is the precomputed fixed-base table that accelerates the r^n mod n²
	// factor of every encryption (see fixedbase.go). GenerateKeyFor populates
	// it; a key built by hand leaves it nil, and
	// then every encryption — Encrypt's and each EncryptVector slot's —
	// takes the textbook exponentiation. The table is immutable, so copying
	// the key copies the pointer safely.
	fb *fixedBase
}

// PrivateKey holds the factorization-derived decryption values. Like the
// public key it is immutable after generation and safe for concurrent use.
type PrivateKey struct {
	PublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // (L(g^lambda mod n^2))^-1 mod n

	// CRT acceleration: KeyFromPrime records the prime factors so Decrypt can
	// exponentiate mod p² and q² separately (~4× at 2048-bit keys) and
	// recombine. Keys reassembled via FromSecrets have no factorization — p
	// stays nil and Decrypt takes the lambda/mu path.
	p, q     *big.Int
	p2, q2   *big.Int // p², q²
	pm1, qm1 *big.Int // p−1 and q−1, the CRT decryption exponents
	hp, hq   *big.Int // L_p(g^{p−1} mod p²)^{-1} mod p and the q analogue
	pInvQ    *big.Int // p^{-1} mod q, for the CRT recombination
}

// Ciphertext is a Paillier ciphertext.
type Ciphertext struct {
	C *big.Int
}

// Bytes returns the serialized size, used by the cost model and the runtime's
// traffic accounting.
func (c *Ciphertext) Bytes() int {
	if c == nil || c.C == nil {
		return 0
	}
	return (c.C.BitLen() + 7) / 8
}

// GenerateKey creates a Paillier keypair with an n of the given bit length
// and a fixed-base table for any number of encryptions: GenerateKeyFor with
// no bound.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	return GenerateKeyFor(random, bits, math.MaxInt)
}

// GenerateKeyFor creates a Paillier keypair with an n of the given bit
// length, whose fixed-base table is sized for about encryptions encryptions:
// more still encrypt correctly, each walk a few steps longer than the
// table's best. bits must be even, so that two primes of bits/2 bits with
// their top two bits set make it, and at least 128 (tests use small keys;
// deployments use ≥ 2048). The two primes are drawn side by side on the
// worker pool (randomPrime), through a mutex-wrapped reader unless random is
// crypto/rand's; which of them reads which bytes depends on the schedule, so
// a seeded reader does not make the key reproducible. The key is built by
// KeyFromPrime.
func GenerateKeyFor(random io.Reader, bits, encryptions int) (*PrivateKey, error) {
	if bits < 128 {
		return nil, errors.New("ahe: key too small")
	}
	if bits%2 != 0 {
		return nil, fmt.Errorf("ahe: key size %d is odd", bits)
	}
	random = parallelSafeReader(random)
	for {
		pq, err := parallel.Map(nil, 2, 0, func(int) (*big.Int, error) {
			return randomPrime(random, bits/2)
		})
		if err != nil {
			return nil, err
		}
		p, q := pq[0], pq[1]
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		n2 := new(big.Int).Mul(n, n)
		sk, err := KeyFromPrime(&PublicKey{N: n, N2: n2}, p)
		if err != nil {
			continue
		}
		sk.fb = newFixedBase(n, n2, encryptions, p, q)
		return sk, nil
	}
}

// ErrNotFactor is KeyFromPrime's refusal of a p that is not a proper factor
// of n, or whose cofactor does not yield a decryption key.
var ErrNotFactor = errors.New("ahe: not a proper factor of the modulus")

// KeyFromPrime builds the private key for pub from one prime factor p of
// its modulus: q = n/p, then λ = lcm(p−1, q−1), μ = (λ mod n)⁻¹ mod n and the
// CRT values, so Decrypt takes the CRT path. GenerateKeyFor builds every key
// this way, and a decryption committee rebuilds its key from a reconstructed
// p. It fails closed with ErrNotFactor unless 1 < p < n and p divides n, and
// the derived inverses exist. The result shares pub's fixed-base table.
func KeyFromPrime(pub *PublicKey, p *big.Int) (*PrivateKey, error) {
	n := pub.N
	if p.Cmp(one) <= 0 || p.Cmp(n) >= 0 {
		return nil, ErrNotFactor
	}
	q, r := new(big.Int).QuoRem(n, p, new(big.Int))
	if r.Sign() != 0 {
		return nil, ErrNotFactor
	}
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)
	// g = n+1, so g^lambda mod n^2 = 1 + n·lambda mod n^2 and
	// L(g^lambda) = lambda mod n; mu = lambda^-1 mod n.
	mu := new(big.Int).ModInverse(new(big.Int).Mod(lambda, n), n)
	// CRT precomputation. With g = n+1 and n ≡ 0 (mod p),
	// g^{p−1} mod p² = 1 + (p−1)·n mod p², so
	// L_p(g^{p−1}) = (p−1)·q mod p and hp is its inverse (hq likewise).
	hp := new(big.Int).ModInverse(new(big.Int).Mod(new(big.Int).Mul(pm1, q), p), p)
	hq := new(big.Int).ModInverse(new(big.Int).Mod(new(big.Int).Mul(qm1, p), q), q)
	pInvQ := new(big.Int).ModInverse(new(big.Int).Mod(p, q), q)
	if mu == nil || hp == nil || hq == nil || pInvQ == nil {
		return nil, ErrNotFactor
	}
	return &PrivateKey{
		PublicKey: *pub,
		lambda:    lambda,
		mu:        mu,
		p:         new(big.Int).Set(p),
		q:         q,
		p2:        new(big.Int).Mul(p, p),
		q2:        new(big.Int).Mul(q, q),
		pm1:       pm1,
		qm1:       qm1,
		hp:        hp,
		hq:        hq,
		pInvQ:     pInvQ,
	}, nil
}

// Encrypt encrypts m ∈ [0, n) under pk. Negative messages are mapped to
// n − |m| (two's-complement-style), which Decrypt undoes for small values.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	return pk.encrypt(random, m, pk.fb)
}

// encrypt is Encrypt with an explicit fixed-base table (possibly nil).
//
// With a table, the whole operation runs on the table's pooled scratch —
// g^m, then one walk that multiplies it by the randomizer — and only the
// returned ciphertext is freshly allocated (two allocations: box + limbs).
// Without one it falls back to the allocating textbook path.
func (pk *PublicKey) encrypt(random io.Reader, m *big.Int, fb *fixedBase) (*Ciphertext, error) {
	if fb == nil {
		// Textbook path: r uniform in [1, n) with gcd(r, n) = 1
		// (overwhelmingly likely), then a full n-bit exponentiation.
		var r *big.Int
		var err error
		for {
			r, err = rand.Int(random, pk.N)
			if err != nil {
				return nil, err
			}
			if r.Sign() != 0 && new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
				break
			}
		}
		rn := new(big.Int).Exp(r, pk.N, pk.N2)
		msg := new(big.Int).Mod(m, pk.N)
		gm := new(big.Int).Mul(msg, pk.N)
		gm.Add(gm, one)
		c := gm.Mul(gm, rn)
		c.Mod(c, pk.N2)
		return &Ciphertext{C: c}, nil
	}
	s := fb.scratch.Get()
	defer fb.scratch.Put(s)
	// The randomizer is gn^x for x a uniform 512-bit exponent, read from
	// random as little-endian bytes.
	if _, err := io.ReadFull(random, s.exp[:]); err != nil {
		return nil, err
	}
	msg := s.msg.Mod(m, pk.N)
	// c = g^m · gn^x mod n² with g = n+1: g^m = 1 + m·n, which is already
	// below n² (msg ≤ n−1 gives g^m ≤ n² − n + 1), so it is a valid factor
	// for the comb's walk as it stands.
	gm := s.gm.Mul(msg, pk.N)
	gm.Add(gm, one)
	fb.comb.MulExp(&s.c, &s.fb, gm, s.exp[:])
	return newCiphertextFrom(&s.c), nil
}

// Decrypt recovers the plaintext. Values above n/2 are returned negative,
// matching Encrypt's handling of negative messages. Keys that carry their
// factorization (GenerateKey, KeyFromPrime) decrypt via CRT — two half-width
// exponentiations instead of one full-width one; keys from FromSecrets use
// the lambda/mu formula. Both compute the same value.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) (*big.Int, error) {
	if ct == nil || ct.C == nil || ct.C.Sign() <= 0 || ct.C.Cmp(sk.N2) >= 0 {
		return nil, errors.New("ahe: ciphertext out of range")
	}
	var m *big.Int
	if sk.p != nil {
		m = sk.decryptCRT(ct.C)
	} else {
		u := new(big.Int).Exp(ct.C, sk.lambda, sk.N2)
		// L(u) = (u-1)/n
		u.Sub(u, one)
		u.Div(u, sk.N)
		m = u.Mul(u, sk.mu)
		m.Mod(m, sk.N)
	}
	half := new(big.Int).Rsh(sk.N, 1)
	if m.Cmp(half) > 0 {
		m.Sub(m, sk.N)
	}
	return m, nil
}

// decryptCRT computes the plaintext of c mod p and mod q separately and
// recombines: m_p = L_p(c^{p−1} mod p²)·hp mod p with L_p(x) = (x−1)/p, the
// same mod q, then m = m_p + p·((m_q − m_p)·p^{-1} mod q). Exponent and
// modulus are both half-width, which is ~4× cheaper than the lambda/mu
// exponentiation mod n² at 2048-bit keys.
func (sk *PrivateKey) decryptCRT(c *big.Int) *big.Int {
	up := new(big.Int).Mod(c, sk.p2)
	up.Exp(up, sk.pm1, sk.p2)
	up.Sub(up, one)
	up.Div(up, sk.p)
	mp := up.Mul(up, sk.hp)
	mp.Mod(mp, sk.p)

	uq := new(big.Int).Mod(c, sk.q2)
	uq.Exp(uq, sk.qm1, sk.q2)
	uq.Sub(uq, one)
	uq.Div(uq, sk.q)
	mq := uq.Mul(uq, sk.hq)
	mq.Mod(mq, sk.q)

	// m ≡ mp (mod p), m ≡ mq (mod q), m ∈ [0, n).
	d := new(big.Int).Sub(mq, mp)
	d.Mod(d, sk.q)
	d.Mul(d, sk.pInvQ)
	d.Mod(d, sk.q)
	d.Mul(d, sk.p)
	return d.Add(d, mp)
}

// check rejects a ciphertext operand that is a nil pointer or carries no
// value (the zero Ciphertext) before any arithmetic dereferences it.
func (pk *PublicKey) check(cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct == nil || ct.C == nil {
			return errors.New("ahe: nil ciphertext")
		}
	}
	return nil
}

// Add returns a ciphertext encrypting the sum of the two plaintexts: the ⊞
// operator of Section 2.2.
func (pk *PublicKey) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := pk.check(a, b); err != nil {
		return nil, err
	}
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// AddPlain returns a ciphertext encrypting plaintext(a) + k.
func (pk *PublicKey) AddPlain(a *Ciphertext, k *big.Int) (*Ciphertext, error) {
	if err := pk.check(a); err != nil {
		return nil, err
	}
	gk := new(big.Int).Mul(new(big.Int).Mod(k, pk.N), pk.N)
	gk.Add(gk, one)
	gk.Mod(gk, pk.N2)
	c := new(big.Int).Mul(a.C, gk)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// lockedReader serializes Read calls so a non-thread-safe randomness source
// can feed a parallel encryption loop.
type lockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}

// parallelSafeReader returns a reader safe for concurrent use: crypto/rand's
// Reader already is; anything else gets a mutex.
func parallelSafeReader(r io.Reader) io.Reader {
	if r == rand.Reader {
		return r
	}
	return &lockedReader{r: r}
}

// EncryptVector one-hot-encodes and encrypts one slot per position: the
// returned slice has an encryption of 1 at position hot and encryptions of
// 0 elsewhere. Devices upload packed rows instead (Packing.Encrypt), so no
// product code calls this; it stays exported only because the benchmark
// module's replay (bench/replay.go) does, and goes when the replay does. The
// per-position encryptions are independent, so they run on the package's
// worker pool; slot i always holds position i's ciphertext. Every slot
// encrypts as Encrypt does: on the key's fixed-base table when it has one,
// by the textbook path when the key was built by hand.
func (pk *PublicKey) EncryptVector(random io.Reader, length, hot int) ([]*Ciphertext, error) {
	if hot < 0 || hot >= length {
		return nil, fmt.Errorf("ahe: hot index %d out of [0,%d)", hot, length)
	}
	w := parallel.Workers(0)
	if w > 1 && length > 1 {
		random = parallelSafeReader(random)
	}
	return parallel.Map(nil, length, w, func(i int) (*Ciphertext, error) {
		m := zero
		if i == hot {
			m = one
		}
		return pk.Encrypt(random, m)
	})
}

// Prime exposes a copy of the prime factor p of n for threshold-style
// handoff to a committee: the runtime secret-shares it via internal/shamir,
// mirroring how the real system would share a BGV key, and rebuilds the key
// with KeyFromPrime (DESIGN.md, "Key shares"). A key from FromSecrets has no
// factorization, and Prime returns nil.
func (sk *PrivateKey) Prime() *big.Int {
	if sk.p == nil {
		return nil
	}
	return new(big.Int).Set(sk.p)
}

// Lambda exposes a copy of the decryption exponent λ = lcm(p−1, q−1).
func (sk *PrivateKey) Lambda() *big.Int { return new(big.Int).Set(sk.lambda) }

// Mu exposes a copy of the post-processing inverse, (λ mod n)⁻¹ mod n.
func (sk *PrivateKey) Mu() *big.Int { return new(big.Int).Set(sk.mu) }

// FromSecrets reassembles a private key from λ and its μ. The key has no
// factorization, so Decrypt takes the lambda/mu path: one full-width
// exponentiation mod n². Committees rebuild their key with KeyFromPrime
// instead; this and the lambda/mu path remain for the benchmark's replay.
func FromSecrets(pk *PublicKey, lambda, mu *big.Int) *PrivateKey {
	return &PrivateKey{
		PublicKey: *pk,
		lambda:    new(big.Int).Set(lambda),
		mu:        new(big.Int).Set(mu),
	}
}
