package bgv

// The ring: Z_Q[x]/(x^n + 1) in RNS (residue number system) form.
//
// A coefficient must fit a machine word, so a single prime tops out at 60
// bits. The paper's prototype runs at ring degree 2^15 with a ~135-bit
// ciphertext modulus (Section 6), which the ring reaches by CRT: the modulus
// is a product Q = q_1·…·q_L of word-sized NTT-friendly primes, and a ring
// element is stored as its residues mod each q_l — L rows of N words. Every
// ring operation is then L independent single-prime operations on the
// per-prime NTT tables from ntt.go, so the paper-scale parameters run natively
// on 64-bit arithmetic and scripts/bench.sh can *measure* the Table 1 FHE
// column instead of extrapolating it. The prime basis is a parameter value
// (Params.Qi), not a second implementation: the one-prime test ring
// (TestParams) is this code at L = 1.
//
// Relinearization is the hybrid RNS gadget: a tensor coefficient d2 is
// represented per prime, each residue is decomposed into base-2^relinLogBase
// digits, and the relin key holds encryptions of g_l·2^(10·j)·s² where
// g_l = (Q/q_l)·((Q/q_l)^{-1} mod q_l) is the CRT interpolation basis —
// Σ_l g_l·(x mod q_l) ≡ x (mod Q). Because g_l ≡ 1 (mod q_l) and ≡ 0 mod
// every other prime, the key-generation factors need no big-integer
// arithmetic at all.
//
// The samplers' byte consumption is part of the contract: a ternary draw
// reads N bytes whatever L is, a uniform draw reads each prime's row in turn,
// and key generation draws secret, public A, public error, then per gadget
// digit A and error. rns_equiv_test.go pins the resulting words at L = 1 to
// digests of the single-prime implementation this ring replaced.
//
// A Context is logically immutable after NewContext (the scratch pools are
// internally synchronized), the hot paths run one worker-pool task per prime,
// and results are bit-identical at any worker count because the per-prime
// lanes are independent and partials combine in a fixed order.

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"

	"arboretum/internal/fixed"
	"arboretum/internal/parallel"
)

// Params fixes a ring degree, plaintext modulus, and RNS prime basis.
type Params struct {
	N  int      // ring degree, power of two
	T  uint64   // plaintext modulus, coprime with every q_l, T ≪ q_l
	Qi []uint64 // pairwise-distinct NTT-friendly primes, q_l ≡ 1 (mod 2N)
}

// PaperRNSParams is the paper-scale parameter set: ring degree 2^15 and a
// 135-bit modulus built from three 45-bit primes ≡ 1 (mod 2^18). This is the
// instantiation Table 1's FHE column is measured at.
var PaperRNSParams = Params{
	N: 1 << 15,
	T: 65537,
	Qi: []uint64{
		35184365273089, // 45-bit
		35184350330881, // 45-bit
		35184345088001, // 45-bit
	},
}

// TestRNSParams is a small three-prime basis (30-bit primes, ring degree
// 2^10) for unit tests.
var TestRNSParams = Params{
	N:  1 << 10,
	T:  65537,
	Qi: []uint64{1073479681, 1068236801, 1062469633},
}

// TestParams is the one-prime ring at the test degree: the single 60-bit
// modulus Q (one multiplication of depth is supported at these sizes).
var TestParams = Params{N: 1 << 10, T: 65537, Qi: []uint64{Q}}

// maxRNSPrimes bounds the basis size; the paper needs three.
const maxRNSPrimes = 8

// Validate checks the parameter set.
func (p Params) Validate() error {
	if p.N < 16 || p.N&(p.N-1) != 0 {
		return fmt.Errorf("bgv: ring degree %d must be a power of two ≥ 16", p.N)
	}
	if p.N > 1<<17 {
		return fmt.Errorf("bgv: ring degree %d exceeds the supported 2^17", p.N)
	}
	if p.T < 2 || p.T >= 1<<20 {
		return fmt.Errorf("bgv: plaintext modulus %d out of range [2, 2^20)", p.T)
	}
	if len(p.Qi) == 0 || len(p.Qi) > maxRNSPrimes {
		return fmt.Errorf("bgv: %d RNS primes out of range [1, %d]", len(p.Qi), maxRNSPrimes)
	}
	seen := make(map[uint64]bool, len(p.Qi))
	for _, q := range p.Qi {
		if q < 2 || q >= 1<<62 {
			// The lazy-reduction NTT needs 4q to fit a word.
			return fmt.Errorf("bgv: RNS prime %d out of range [2, 2^62)", q)
		}
		if (q-1)%uint64(2*p.N) != 0 {
			return fmt.Errorf("bgv: RNS prime %d is not ≡ 1 mod 2N", q)
		}
		if q%p.T == 0 {
			return fmt.Errorf("bgv: plaintext modulus %d divides RNS prime %d", p.T, q)
		}
		if q <= p.T {
			return fmt.Errorf("bgv: RNS prime %d not above plaintext modulus %d", q, p.T)
		}
		if seen[q] {
			return fmt.Errorf("bgv: duplicate RNS prime %d", q)
		}
		seen[q] = true
	}
	return nil
}

// RingByName resolves a named RNS parameter set: "paper" is the deployment
// ring the evaluation tables quote (2^15, 135-bit composite modulus) and
// "test" is the reduced ring the unit tests run. The planner CLI's -ring
// flag and the cost model's native calibration path accept these names.
func RingByName(name string) (Params, error) {
	switch name {
	case "paper":
		return PaperRNSParams, nil
	case "test":
		return TestRNSParams, nil
	default:
		return Params{}, fmt.Errorf("bgv: unknown ring %q (want \"paper\" or \"test\")", name)
	}
}

// Modulus returns the composite ciphertext modulus Q = Π q_l.
func (p Params) Modulus() *big.Int {
	q := big.NewInt(1)
	for _, qi := range p.Qi {
		q.Mul(q, new(big.Int).SetUint64(qi))
	}
	return q
}

// ModulusBits returns the bit length of the composite modulus — the number
// bench rows and the cost model tag parameter sets with.
func (p Params) ModulusBits() int { return p.Modulus().BitLen() }

// encScratch holds Encrypt's working state: L·N-word vectors for the draws
// and half-products plus the bulk sampling buffer.
type encScratch struct {
	u, e1, e2 []uint64
	bu, au    []uint64
	bt, at    []uint64
	buf       []byte
}

// mulScratch holds Mul's working state: eval-domain input copies, tensor
// accumulators, the per-(prime, digit) gadget polynomials, and one per-prime
// work row for the digit transforms.
type mulScratch struct {
	a0, a1, b0, b1 []uint64
	d0, d1, d2     []uint64
	dig            [][]uint64 // totalDigits rows of N coefficients
	work           []uint64   // L·N: per-prime digit transform rows
	bt, at         []uint64   // L·N: eval relin rows for uncached keys
}

// Context carries a parameter set, one NTT table per prime, the CRT
// reconstruction constants, and the scratch pools the hot paths draw from:
// every Encrypt/Mul checks a scratch struct out, overwrites it completely,
// and returns it on exit. Nothing pooled ever escapes into a returned
// Ciphertext (results live in freshly allocated slabs), so callers cannot
// observe recycling. All methods are safe for concurrent use.
type Context struct {
	Params Params

	n   int
	l   int
	ntt []*nttTables

	qBig    *big.Int   // Π q_l
	qHalf   *big.Int   // Q/2, for the centered lift
	qHat    []*big.Int // Q/q_l
	qHatInv []uint64   // (Q/q_l)^{-1} mod q_l

	// Gadget layout: digits[l] base-2^relinLogBase digits cover q_l, and
	// digOff[l] is prime l's first flat digit index; totalDigits = Σ digits[l].
	digits      []int
	digOff      []int
	totalDigits int

	enc fixed.Pool[encScratch]
	mul fixed.Pool[mulScratch]
}

// NewContext validates params and precomputes the per-prime NTT tables
// and CRT constants.
func NewContext(p Params) (*Context, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Context{Params: p, n: p.N, l: len(p.Qi)}
	c.ntt = make([]*nttTables, c.l)
	for i, q := range p.Qi {
		t, err := newNTTTables(p.N, q)
		if err != nil {
			return nil, err
		}
		c.ntt[i] = t
	}
	c.qBig = p.Modulus()
	c.qHalf = new(big.Int).Rsh(c.qBig, 1)
	c.qHat = make([]*big.Int, c.l)
	c.qHatInv = make([]uint64, c.l)
	for i, q := range p.Qi {
		qi := new(big.Int).SetUint64(q)
		c.qHat[i] = new(big.Int).Div(c.qBig, qi)
		inv := new(big.Int).ModInverse(new(big.Int).Mod(c.qHat[i], qi), qi)
		if inv == nil {
			return nil, fmt.Errorf("bgv: RNS primes not pairwise coprime at %d", q)
		}
		c.qHatInv[i] = inv.Uint64()
	}
	c.digits = make([]int, c.l)
	c.digOff = make([]int, c.l)
	for i, q := range p.Qi {
		c.digOff[i] = c.totalDigits
		c.digits[i] = (bits.Len64(q) + relinLogBase - 1) / relinLogBase
		c.totalDigits += c.digits[i]
	}
	n, l, total := c.n, c.l, c.totalDigits
	c.enc.New = func() *encScratch {
		return &encScratch{
			u: make([]uint64, l*n), e1: make([]uint64, l*n), e2: make([]uint64, l*n),
			bu: make([]uint64, l*n), au: make([]uint64, l*n),
			bt: make([]uint64, l*n), at: make([]uint64, l*n),
			buf: make([]byte, n),
		}
	}
	c.mul.New = func() *mulScratch {
		s := &mulScratch{
			a0: make([]uint64, l*n), a1: make([]uint64, l*n),
			b0: make([]uint64, l*n), b1: make([]uint64, l*n),
			d0: make([]uint64, l*n), d1: make([]uint64, l*n), d2: make([]uint64, l*n),
			dig:  make([][]uint64, total),
			work: make([]uint64, l*n),
			bt:   make([]uint64, l*n), at: make([]uint64, l*n),
		}
		for i := range s.dig {
			s.dig[i] = make([]uint64, n)
		}
		return s
	}
	return c, nil
}

// Levels returns the number of RNS primes.
func (c *Context) Levels() int { return c.l }

// row returns prime l's N-word row of an L·N vector.
func (c *Context) row(v []uint64, l int) []uint64 {
	return v[l*c.n : (l+1)*c.n]
}

// --- sampling ---

// sampleTernary draws ONE polynomial with coefficients in {−1, 0, 1} — used
// for secrets, encryption randomness, and errors; small ternary errors keep
// one multiplication within the noise budget at test parameters — and writes
// its residues into every prime's row: −1 becomes q_l−1 in row l. One bulk
// read of N bytes (buf must hold at least that many) instead of a 1-byte read
// per coefficient gives crypto/rand throughput without per-call overhead, and
// the byte consumption is independent of L.
func (c *Context) sampleTernary(r io.Reader, dst []uint64, buf []byte) error {
	buf = buf[:c.n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	for l := 0; l < c.l; l++ {
		row := c.row(dst, l)
		q := c.Params.Qi[l]
		for i := range row {
			switch buf[i] % 4 {
			case 0:
				row[i] = 1
			case 1:
				row[i] = q - 1
			default:
				row[i] = 0
			}
		}
	}
	return nil
}

// sampleUniform draws each prime's row uniformly and independently —
// by CRT that is exactly a uniform element of Z_Q[x]/(x^n+1).
func (c *Context) sampleUniform(r io.Reader, dst []uint64) error {
	for l := 0; l < c.l; l++ {
		if err := sampleUniformInto(r, c.row(dst, l), c.Params.Qi[l]); err != nil {
			return err
		}
	}
	return nil
}

// --- per-row polynomial helpers (key generation; not allocation-sensitive) ---

// polyMulRow multiplies two N-word rows negacyclically mod q_l.
func (c *Context) polyMulRow(l int, a, b []uint64) []uint64 {
	q := c.Params.Qi[l]
	ae := append([]uint64(nil), a...)
	be := append([]uint64(nil), b...)
	c.ntt[l].Forward(ae)
	c.ntt[l].Forward(be)
	for i := range ae {
		ae[i] = mulMod(ae[i], be[i], q)
	}
	c.ntt[l].Inverse(ae)
	return ae
}

// --- keys ---

// SecretKey is the RLWE secret (the same ternary polynomial's residues in
// every row).
type SecretKey struct {
	S []uint64 // L·N
}

// PublicKey is the RLWE public key (A, B = −A·S + T·E). Keys produced by
// GenerateKeys also carry their per-prime NTT forms, which Encrypt reuses
// instead of transforming A and B on every call; a hand-built PublicKey still
// works through the uncached fallback path.
type PublicKey struct {
	A, B []uint64 // L·N

	// Evaluation-domain (bit-reversed) forms of A and B, populated at key
	// generation. Unexported: derived data, never serialized.
	aNTT, bNTT []uint64
}

// RelinKey key-switches s² back to s after multiplication. It holds one (A, B) pair per flat gadget digit (prime l, digit j):
// B = −A·S + T·E + g_l·2^(relinLogBase·j)·S².
type RelinKey struct {
	A, B [][]uint64 // totalDigits entries of L·N

	aNTT, bNTT [][]uint64
}

// KeyPair bundles the keys a key-generation committee produces.
type KeyPair struct {
	SK  *SecretKey
	PK  *PublicKey
	RLK *RelinKey
}

// GenerateKeys produces a fresh keypair (Section 5.2 runs this inside a
// committee MPC). The draw order is secret, public A, public error, then per
// gadget digit: A then error.
func (c *Context) GenerateKeys(r io.Reader) (*KeyPair, error) {
	n, l := c.n, c.l
	buf := make([]byte, n)
	s := make([]uint64, l*n)
	if err := c.sampleTernary(r, s, buf); err != nil {
		return nil, err
	}
	a := make([]uint64, l*n)
	if err := c.sampleUniform(r, a); err != nil {
		return nil, err
	}
	e := make([]uint64, l*n)
	if err := c.sampleTernary(r, e, buf); err != nil {
		return nil, err
	}
	t := c.Params.T
	b := make([]uint64, l*n)
	for li := 0; li < l; li++ {
		q := c.Params.Qi[li]
		as := c.polyMulRow(li, c.row(a, li), c.row(s, li))
		brow, erow := c.row(b, li), c.row(e, li)
		for i := 0; i < n; i++ {
			brow[i] = addMod(negMod(as[i], q), mulMod(erow[i], t, q), q)
		}
	}
	sk := &SecretKey{S: s}
	pk := &PublicKey{A: a, B: b}
	pk.aNTT = append([]uint64(nil), a...)
	pk.bNTT = append([]uint64(nil), b...)
	for li := 0; li < l; li++ {
		c.ntt[li].Forward(c.row(pk.aNTT, li))
		c.ntt[li].Forward(c.row(pk.bNTT, li))
	}
	rlk, err := c.generateRelinKey(r, sk, buf)
	if err != nil {
		return nil, err
	}
	return &KeyPair{SK: sk, PK: pk, RLK: rlk}, nil
}

func (c *Context) generateRelinKey(r io.Reader, sk *SecretKey, buf []byte) (*RelinKey, error) {
	n, l, t := c.n, c.l, c.Params.T
	// s² per row.
	s2 := make([]uint64, l*n)
	for li := 0; li < l; li++ {
		copy(c.row(s2, li), c.polyMulRow(li, c.row(sk.S, li), c.row(sk.S, li)))
	}
	rlk := &RelinKey{
		A: make([][]uint64, c.totalDigits), B: make([][]uint64, c.totalDigits),
		aNTT: make([][]uint64, c.totalDigits), bNTT: make([][]uint64, c.totalDigits),
	}
	for li := 0; li < l; li++ {
		ql := c.Params.Qi[li]
		// g_l·2^(10j) mod q_m is 0 for m ≠ l and 2^(10j) mod q_l for m = l,
		// so only row l carries the s² term.
		pow := uint64(1)
		for j := 0; j < c.digits[li]; j++ {
			id := c.digOff[li] + j
			a := make([]uint64, l*n)
			if err := c.sampleUniform(r, a); err != nil {
				return nil, err
			}
			e := make([]uint64, l*n)
			if err := c.sampleTernary(r, e, buf); err != nil {
				return nil, err
			}
			b := make([]uint64, l*n)
			for m := 0; m < l; m++ {
				q := c.Params.Qi[m]
				as := c.polyMulRow(m, c.row(a, m), c.row(sk.S, m))
				brow, erow := c.row(b, m), c.row(e, m)
				for i := 0; i < n; i++ {
					brow[i] = addMod(negMod(as[i], q), mulMod(erow[i], t, q), q)
				}
				if m == li {
					s2row := c.row(s2, m)
					for i := 0; i < n; i++ {
						brow[i] = addMod(brow[i], mulMod(s2row[i], pow, q), q)
					}
				}
			}
			rlk.A[id], rlk.B[id] = a, b
			rlk.aNTT[id] = append([]uint64(nil), a...)
			rlk.bNTT[id] = append([]uint64(nil), b...)
			for m := 0; m < l; m++ {
				c.ntt[m].Forward(c.row(rlk.aNTT[id], m))
				c.ntt[m].Forward(c.row(rlk.bNTT[id], m))
			}
			pow = mulMod(pow, 1<<relinLogBase, ql)
		}
	}
	return rlk, nil
}

// --- ciphertexts ---

// Ciphertext is a degree-1 BGV ciphertext (C0, C1) with
// C0 + C1·S = m + T·noise (mod Q), in RNS form: C0 and C1 each hold L rows of
// N words (level-major).
type Ciphertext struct {
	C0, C1 []uint64
}

// Bytes returns the serialized coefficient size for traffic accounting.
func (ct *Ciphertext) Bytes() int {
	if ct == nil {
		return 0
	}
	return 8 * (len(ct.C0) + len(ct.C1))
}

// newCiphertext allocates a result ciphertext as a single 2·L·N slab sliced
// in half: exactly two heap allocations (slab + header struct), which is the
// entire steady-state allocation budget of the hot paths — everything else
// they touch is pooled scratch.
func (c *Context) newCiphertext() *Ciphertext {
	ln := c.l * c.n
	slab := make([]uint64, 2*ln)
	return &Ciphertext{C0: slab[:ln:ln], C1: slab[ln:]}
}

// errMalformed rejects a nil ciphertext or one whose halves are not L·N
// words: a zero value, a truncated one, or one from another ring.
var errMalformed = errors.New("bgv: malformed ciphertext")

// errPlainDegree rejects an encoded plaintext that is not N coefficients.
var errPlainDegree = errors.New("bgv: plaintext polynomial has wrong degree")

// check returns errMalformed unless every ciphertext has this ring's shape.
// Every ciphertext-taking method calls it first: row slices by L·N, and Mul
// copies its operands into pooled scratch, where a short operand would leave
// the previous call's data in place.
func (c *Context) check(cts ...*Ciphertext) error {
	ln := c.l * c.n
	for _, ct := range cts {
		if ct == nil || len(ct.C0) != ln || len(ct.C1) != ln {
			return errMalformed
		}
	}
	return nil
}

// Encode places values (reduced mod T) into a polynomial's coefficients.
// The result is a plain N-length Poly: plaintext coefficients are below T,
// hence below every prime, so one row serves all L lanes.
func (c *Context) Encode(values []uint64) (Poly, error) {
	if len(values) > c.n {
		return nil, fmt.Errorf("bgv: %d values exceed ring degree %d", len(values), c.n)
	}
	p := make(Poly, c.n)
	for i, v := range values {
		p[i] = v % c.Params.T
	}
	return p, nil
}

// Encrypt encrypts the encoded plaintext polynomial under pk. Scratch is
// pooled and the result is a fresh slab: two steady-state allocations at one
// worker.
func (c *Context) Encrypt(r io.Reader, pk *PublicKey, m Poly) (*Ciphertext, error) {
	if len(m) != c.n {
		return nil, errPlainDegree
	}
	s := c.enc.Get()
	defer c.enc.Put(s)
	if err := c.sampleTernary(r, s.u, s.buf); err != nil {
		return nil, err
	}
	if err := c.sampleTernary(r, s.e1, s.buf); err != nil {
		return nil, err
	}
	if err := c.sampleTernary(r, s.e2, s.buf); err != nil {
		return nil, err
	}
	ct := c.newCiphertext()
	if parallel.Workers(0) == 1 {
		for li := 0; li < c.l; li++ {
			c.encryptRow(s, pk, m, ct, li)
		}
	} else {
		//arblint:ignore errdiscard ForEach only propagates closure errors and this closure is infallible
		_ = parallel.ForEach(nil, c.l, 0, func(li int) error {
			c.encryptRow(s, pk, m, ct, li)
			return nil
		})
	}
	return ct, nil
}

// encryptRow runs one prime lane of Encrypt: (b·u, a·u) in the evaluation
// domain against the key's cached NTT rows, back, then the noise and message
// terms. Lanes touch disjoint rows, so they may run concurrently.
func (c *Context) encryptRow(s *encScratch, pk *PublicKey, m Poly, ct *Ciphertext, li int) {
	q := c.Params.Qi[li]
	t := c.Params.T
	ntt := c.ntt[li]
	u := c.row(s.u, li)
	ntt.Forward(u)
	var bEval, aEval []uint64
	if len(pk.bNTT) == len(pk.B) && len(pk.bNTT) == c.l*c.n {
		bEval, aEval = c.row(pk.bNTT, li), c.row(pk.aNTT, li)
	} else {
		bEval, aEval = c.row(s.bt, li), c.row(s.at, li)
		copy(bEval, c.row(pk.B, li))
		copy(aEval, c.row(pk.A, li))
		ntt.Forward(bEval)
		ntt.Forward(aEval)
	}
	bu, au := c.row(s.bu, li), c.row(s.au, li)
	for i := range u {
		bu[i] = mulMod(bEval[i], u[i], q)
		au[i] = mulMod(aEval[i], u[i], q)
	}
	ntt.Inverse(bu)
	ntt.Inverse(au)
	e1, e2 := c.row(s.e1, li), c.row(s.e2, li)
	c0, c1 := c.row(ct.C0, li), c.row(ct.C1, li)
	for i := range c0 {
		c0[i] = addMod(addMod(bu[i], mulMod(e1[i], t, q), q), m[i], q)
		c1[i] = addMod(au[i], mulMod(e2[i], t, q), q)
	}
}

// EncryptValues encodes and encrypts a value vector in one call.
func (c *Context) EncryptValues(r io.Reader, pk *PublicKey, values []uint64) (*Ciphertext, error) {
	m, err := c.Encode(values)
	if err != nil {
		return nil, err
	}
	return c.Encrypt(r, pk, m)
}

// Decrypt recovers the plaintext coefficient vector: per-prime phase
// c0 + c1·s, CRT reconstruction to the full modulus, centered lift, then
// reduction mod T. Decryption is off the hot path and allocates freely.
func (c *Context) Decrypt(sk *SecretKey, ct *Ciphertext) (Plaintext, error) {
	if err := c.check(ct); err != nil {
		return nil, err
	}
	n := c.n
	phase := make([]uint64, c.l*n)
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		cs := c.polyMulRow(li, c.row(ct.C1, li), c.row(sk.S, li))
		prow, c0row := c.row(phase, li), c.row(ct.C0, li)
		for i := 0; i < n; i++ {
			prow[i] = addMod(c0row[i], cs[i], q)
		}
	}
	out := make(Plaintext, n)
	t := c.Params.T
	tBig := new(big.Int).SetUint64(t)
	acc := new(big.Int)
	term := new(big.Int)
	for i := 0; i < n; i++ {
		// x = Σ_l ((x_l·(Q/q_l)^{-1}) mod q_l)·(Q/q_l) mod Q.
		acc.SetUint64(0)
		for li := 0; li < c.l; li++ {
			q := c.Params.Qi[li]
			xi := mulMod(phase[li*n+i], c.qHatInv[li], q)
			term.SetUint64(xi)
			term.Mul(term, c.qHat[li])
			acc.Add(acc, term)
		}
		acc.Mod(acc, c.qBig)
		// Centered lift: values above Q/2 represent small negatives.
		if acc.Cmp(c.qHalf) > 0 {
			acc.Sub(acc, c.qBig)
		}
		acc.Mod(acc, tBig) // Mod is Euclidean: the result is already in [0, t)
		out[i] = acc.Uint64()
	}
	return out, nil
}

// Add homomorphically adds (slot-wise): the ⊞ operator. The result is one
// slab (two allocations), like every hot-path ciphertext.
func (c *Context) Add(a, b *Ciphertext) (*Ciphertext, error) {
	if err := c.check(a, b); err != nil {
		return nil, err
	}
	out := c.newCiphertext()
	n := c.n
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		o0, o1 := c.row(out.C0, li), c.row(out.C1, li)
		a0, a1 := c.row(a.C0, li), c.row(a.C1, li)
		b0, b1 := c.row(b.C0, li), c.row(b.C1, li)
		for i := 0; i < n; i++ {
			o0[i] = addMod(a0[i], b0[i], q)
			o1[i] = addMod(a1[i], b1[i], q)
		}
	}
	return out, nil
}

// Sub homomorphically subtracts.
func (c *Context) Sub(a, b *Ciphertext) (*Ciphertext, error) {
	if err := c.check(a, b); err != nil {
		return nil, err
	}
	out := c.newCiphertext()
	n := c.n
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		o0, o1 := c.row(out.C0, li), c.row(out.C1, li)
		a0, a1 := c.row(a.C0, li), c.row(a.C1, li)
		b0, b1 := c.row(b.C0, li), c.row(b.C1, li)
		for i := 0; i < n; i++ {
			o0[i] = subMod(a0[i], b0[i], q)
			o1[i] = subMod(a1[i], b1[i], q)
		}
	}
	return out, nil
}

// AddPlain adds an encoded plaintext to a ciphertext. m's coefficients are
// below T, hence already reduced in every prime's lane.
func (c *Context) AddPlain(a *Ciphertext, m Poly) (*Ciphertext, error) {
	if err := c.check(a); err != nil {
		return nil, err
	}
	if len(m) != c.n {
		return nil, errPlainDegree
	}
	out := c.newCiphertext()
	copy(out.C1, a.C1)
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		o0, a0 := c.row(out.C0, li), c.row(a.C0, li)
		for i := range o0 {
			o0[i] = addMod(a0[i], m[i], q)
		}
	}
	return out, nil
}

// MulPlain multiplies a ciphertext by an encoded plaintext polynomial
// (negacyclic convolution in coefficient encoding; scalar for degree-0 m).
func (c *Context) MulPlain(a *Ciphertext, m Poly) (*Ciphertext, error) {
	if err := c.check(a); err != nil {
		return nil, err
	}
	if len(m) != c.n {
		return nil, errPlainDegree
	}
	out := c.newCiphertext()
	for li := 0; li < c.l; li++ {
		copy(c.row(out.C0, li), c.polyMulRow(li, c.row(a.C0, li), m))
		copy(c.row(out.C1, li), c.polyMulRow(li, c.row(a.C1, li), m))
	}
	return out, nil
}

// MulScalar multiplies by a public integer scalar.
func (c *Context) MulScalar(a *Ciphertext, k uint64) (*Ciphertext, error) {
	if err := c.check(a); err != nil {
		return nil, err
	}
	kk := k % c.Params.T
	out := c.newCiphertext()
	for li := 0; li < c.l; li++ {
		q := c.Params.Qi[li]
		o0, o1 := c.row(out.C0, li), c.row(out.C1, li)
		a0, a1 := c.row(a.C0, li), c.row(a.C1, li)
		for i := range o0 {
			o0[i] = mulMod(a0[i], kk, q)
			o1[i] = mulMod(a1[i], kk, q)
		}
	}
	return out, nil
}

// Mul multiplies two ciphertexts and relinearizes back to degree 1 with the
// hybrid RNS gadget: the ⊠ operator. One multiplication level is supported at
// the named parameter sets. Phase one runs per prime: forward-transform the
// four input rows, point-wise tensor, inverse-transform d2, extract that
// prime's base-2^10 digits. Phase two runs per prime again: every (prime, digit)
// polynomial — small coefficients, valid in every lane — is forward-
// transformed in this prime's domain and folded against the relin key's
// cached NTT rows in flat digit order, then d0 and d1 come back and land in
// the result slab. Scratch is pooled; at one worker a steady-state Mul
// performs two heap allocations.
func (c *Context) Mul(a, b *Ciphertext, rlk *RelinKey) (*Ciphertext, error) {
	if err := c.check(a, b); err != nil {
		return nil, err
	}
	if rlk == nil {
		return nil, errors.New("bgv: relinearization key required")
	}
	if len(rlk.A) != c.totalDigits || len(rlk.B) != c.totalDigits {
		return nil, fmt.Errorf("bgv: relin key has %d digits, want %d", len(rlk.A), c.totalDigits)
	}
	s := c.mul.Get()
	defer c.mul.Put(s)
	copy(s.a0, a.C0)
	copy(s.a1, a.C1)
	copy(s.b0, b.C0)
	copy(s.b1, b.C1)
	cached := len(rlk.bNTT) == c.totalDigits && len(rlk.aNTT) == c.totalDigits &&
		len(rlk.bNTT[0]) == c.l*c.n
	ct := c.newCiphertext()
	if parallel.Workers(0) == 1 {
		for li := 0; li < c.l; li++ {
			c.mulTensorRow(s, li)
		}
		for li := 0; li < c.l; li++ {
			c.mulRelinRow(s, rlk, ct, li, cached)
		}
	} else {
		//arblint:ignore errdiscard ForEach only propagates closure errors and these closures are infallible
		_ = parallel.ForEach(nil, c.l, 0, func(li int) error {
			c.mulTensorRow(s, li)
			return nil
		})
		// The digit polynomials cross prime lanes (every lane consumes every
		// prime's digits), so the relin phase starts only after the full
		// tensor phase — ForEach is the barrier.
		//arblint:ignore errdiscard ForEach only propagates closure errors and these closures are infallible
		_ = parallel.ForEach(nil, c.l, 0, func(li int) error {
			c.mulRelinRow(s, rlk, ct, li, cached)
			return nil
		})
	}
	return ct, nil
}

// mulTensorRow runs phase one of Mul for one prime lane: forward transforms,
// point-wise tensor into (d0, d1, d2), d2 back to coefficients, digit
// extraction into this prime's flat digit slots.
func (c *Context) mulTensorRow(s *mulScratch, li int) {
	q := c.Params.Qi[li]
	ntt := c.ntt[li]
	n := c.n
	a0, a1 := c.row(s.a0, li), c.row(s.a1, li)
	b0, b1 := c.row(s.b0, li), c.row(s.b1, li)
	ntt.Forward(a0)
	ntt.Forward(a1)
	ntt.Forward(b0)
	ntt.Forward(b1)
	d0, d1, d2 := c.row(s.d0, li), c.row(s.d1, li), c.row(s.d2, li)
	for i := 0; i < n; i++ {
		d0[i] = mulMod(a0[i], b0[i], q)
		d1[i] = addMod(mulMod(a0[i], b1[i], q), mulMod(a1[i], b0[i], q), q)
		d2[i] = mulMod(a1[i], b1[i], q)
	}
	ntt.Inverse(d2)
	mask := uint64(1<<relinLogBase) - 1
	for j := 0; j < c.digits[li]; j++ {
		digit := s.dig[c.digOff[li]+j]
		for i := 0; i < n; i++ {
			digit[i] = d2[i] & mask
			d2[i] >>= relinLogBase
		}
	}
}

// mulRelinRow runs phase two of Mul for one prime lane: fold every flat
// gadget digit against the relin key in this lane, inverse-transform the two
// accumulators, and write the lane's result rows.
func (c *Context) mulRelinRow(s *mulScratch, rlk *RelinKey, ct *Ciphertext, li int, cached bool) {
	q := c.Params.Qi[li]
	ntt := c.ntt[li]
	n := c.n
	d0, d1 := c.row(s.d0, li), c.row(s.d1, li)
	work := c.row(s.work, li)
	for id := 0; id < c.totalDigits; id++ {
		copy(work, s.dig[id])
		ntt.Forward(work)
		var bRow, aRow []uint64
		if cached {
			bRow, aRow = c.row(rlk.bNTT[id], li), c.row(rlk.aNTT[id], li)
		} else {
			bRow, aRow = c.row(s.bt, li), c.row(s.at, li)
			copy(bRow, c.row(rlk.B[id], li))
			copy(aRow, c.row(rlk.A[id], li))
			ntt.Forward(bRow)
			ntt.Forward(aRow)
		}
		for i := 0; i < n; i++ {
			d0[i] = addMod(d0[i], mulMod(work[i], bRow[i], q), q)
			d1[i] = addMod(d1[i], mulMod(work[i], aRow[i], q), q)
		}
	}
	ntt.Inverse(d0)
	ntt.Inverse(d1)
	copy(c.row(ct.C0, li), d0)
	copy(c.row(ct.C1, li), d1)
}

// minParallelSum is the ciphertext count below which Sum stays sequential.
const minParallelSum = 32

// sumRange folds addition sequentially over a non-empty slice into one
// freshly allocated accumulator ciphertext instead of allocating a fresh
// ciphertext per Add — the same addMod in the same order, two allocations per
// range.
func (c *Context) sumRange(cts []*Ciphertext) (*Ciphertext, error) {
	if err := c.check(cts...); err != nil {
		return nil, err
	}
	if len(cts) == 1 {
		return cts[0], nil
	}
	acc := c.newCiphertext()
	copy(acc.C0, cts[0].C0)
	copy(acc.C1, cts[0].C1)
	n := c.n
	for _, ct := range cts[1:] {
		for li := 0; li < c.l; li++ {
			q := c.Params.Qi[li]
			a0, a1 := c.row(acc.C0, li), c.row(acc.C1, li)
			b0, b1 := c.row(ct.C0, li), c.row(ct.C1, li)
			for i := 0; i < n; i++ {
				a0[i] = addMod(a0[i], b0[i], q)
				a1[i] = addMod(a1[i], b1[i], q)
			}
		}
	}
	return acc, nil
}

// Sum folds Add over ciphertexts (the aggregator's AHE/FHE sum loop). Large
// sums fold in parallel chunks whose partials are combined in index order;
// coefficient-wise addition mod q_l is associative and commutative, so the
// result is bit-identical to the sequential fold at any worker count.
func (c *Context) Sum(cts []*Ciphertext) (*Ciphertext, error) {
	if len(cts) == 0 {
		return nil, errors.New("bgv: empty sum")
	}
	w := parallel.Workers(0)
	if w > 1 && len(cts) >= minParallelSum {
		chunk := (len(cts) + w - 1) / w
		nChunks := (len(cts) + chunk - 1) / chunk
		partials, err := parallel.Map(nil, nChunks, w, func(ci int) (*Ciphertext, error) {
			lo := ci * chunk
			hi := lo + chunk
			if hi > len(cts) {
				hi = len(cts)
			}
			return c.sumRange(cts[lo:hi])
		})
		if err != nil {
			return nil, err
		}
		return c.sumRange(partials)
	}
	return c.sumRange(cts)
}
