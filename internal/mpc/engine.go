// Package mpc implements the honest-majority multi-party computation engine
// Arboretum's committees run (Sections 5.4 and 6).
//
// The engine simulates an m-party Shamir-sharing MPC in one process with
// faithful protocol structure and communication accounting: linear operations
// are local; multiplications consume Beaver triples and cost one round of
// openings; comparisons run the Catrina–de Hoogh bit-decomposition protocols
// on dealer-provided random bits. The paper's prototype uses MP-SPDZ
// (SPDZ-wise Shamir); as in MP-SPDZ, the preprocessing (triples, random
// bits) is generated ahead of the online phase — here by an in-process
// dealer, which is the documented substitution for MP-SPDZ's offline phase
// (DESIGN.md). Round and byte counts drive the cost model and the
// heterogeneity experiments.
//
// The dealer draws from an AES-256-CTR keystream its engine owns, a block at
// a time; the stream's key is read from crypto/rand once, when the engine
// first shares a value (drawWord says why that is as good as reading
// crypto/rand throughout). It shares a value by forward differences: the
// differences of the sharing polynomial at 0 are drawn uniform and stepped
// to each party's point by additions alone (drawTable says why that is the
// uniform polynomial through the value). A multiplication deals its triple
// in one pass over the parties, into engine scratch it never outlives, and
// a comparison's random bits and prefix products stay in scratch too. Each
// opened value and each product share is a 128-bit sum of products reduced
// once (dot, mulAdd2). Every Secret the engine returns is carved
// from an engine-owned slab that is never recycled. None of this is locked:
// an engine is driven from one goroutine (docs/CONCURRENCY.md).
//
// Values are field elements of internal/bgv's 60-bit prime field (the paper
// sets the MPC modulus to BGV's ciphertext modulus). Signed integers up to
// ValueBits bits are embedded centered; fixed-point values reuse
// internal/fixed's Q30.16 scaling.
package mpc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	// ValueBits bounds the magnitude of signed values used in comparisons:
	// inputs to LTZ must lie in (−2^(ValueBits−1), 2^(ValueBits−1)).
	ValueBits = 48
	// kappaStat is the statistical masking parameter of the comparison
	// protocols. ValueBits + kappaStat must stay below the 60-bit field, so
	// it is 10 where the paper's MP-SPDZ programs use 40; DESIGN.md §5,
	// "Comparison masking", says what that costs against the certificate.
	kappaStat = 10
)

// Stats records the communication and computation of one MPC execution;
// the cost model and the runtime consume these.
type Stats struct {
	Rounds      int   // sequential communication rounds
	TotalBytes  int64 // bytes sent across all parties (online phase)
	Opens       int   // values opened
	Triples     int   // Beaver triples consumed
	RandBits    int   // dealer random bits consumed
	DealerBytes int64 // preprocessing material distributed (offline phase)
	LocalMults  int64 // field multiplications (per-party compute proxy)
	Comparisons int   // comparison protocols executed (LTZ invocations)
}

// Secret is a secret-shared field element: shares[i] is party i's share
// (evaluation point x = i+1). The shares are carved from the engine's slab,
// which is never recycled, so no later engine call rewrites a Secret a
// caller holds.
type Secret struct {
	shares []uint64
}

// Engine coordinates one committee's MPC.
type Engine struct {
	M int // parties
	T int // reconstruction threshold (strict majority)

	stats    Stats
	lagrange []uint64 // Lagrange coefficients at 0 for points 1..T

	// onRound, when set, observes every broadcast communication round (the
	// natural point where a party can be noticed missing). The runtime's
	// fault-injection engine hooks it to model mid-round committee dropout.
	onRound func(rounds int)

	// work is made on the engine's first sharing: a deployment forms an
	// engine for every committee, and one that never shares a value
	// allocates nothing beyond NewEngine.
	work *workspace
}

// randBlock is how many bytes of keystream the dealer generates at a time.
const randBlock = 4096

// dealerKeyBytes is the dealer stream's AES-256 key size.
const dealerKeyBytes = 32

// slabWords sizes each share slab: every Secret the engine returns is an
// M-word piece of one.
const slabWords = 1024

// workspace is an engine's dealer stream, share slab and scratch. Like the
// engine it is driven from the coordinating goroutine only.
type workspace struct {
	// stream is the dealer's AES-256-CTR keystream; rnd is a block of its
	// output, and rnd[pos:] is unread.
	stream cipher.Stream
	rnd    [randBlock]byte
	pos    int
	// bits holds nbits unread random bits for drawBits.
	bits  uint64
	nbits int
	// slab is the uncarved tail of the current share slab. It is only ever
	// carved forward: a full slab is replaced, never reused.
	slab []uint64
	// Scratch that no Secret outlives: a Beaver triple's three sharings, one
	// local temporary, three forward-difference tables of T words (a
	// triple's, or one sharing's in diff[:T]), and a comparison's dealer
	// bits and prefix products (ValueBits−1 sharings each).
	ta, tb, tc, tmp, diff, rBits, prefix []uint64
}

// ws returns the engine's workspace, making it on first use. It is small
// enough to inline into every caller.
func (e *Engine) ws() *workspace {
	if e.work == nil {
		e.makeWorkspace()
	}
	return e.work
}

// makeWorkspace makes the engine's workspace under a dealer key read from
// crypto/rand.
func (e *Engine) makeWorkspace() {
	var key [dealerKeyBytes]byte
	if _, err := rand.Read(key[:]); err != nil {
		panic("mpc: randomness unavailable: " + err.Error())
	}
	e.work = e.newWorkspace(key[:])
}

// newWorkspace makes a workspace whose dealer stream is AES-256-CTR under
// key, from a zero counter.
func (e *Engine) newWorkspace(key []byte) *workspace {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic("mpc: dealer key: " + err.Error())
	}
	m, k := e.M, (ValueBits-1)*e.M
	s := make([]uint64, 4*m+3*e.T+2*k)
	take := func(n int) []uint64 {
		v := s[:n:n]
		s = s[n:]
		return v
	}
	return &workspace{
		stream: cipher.NewCTR(block, make([]byte, aes.BlockSize)),
		pos:    randBlock,
		ta:     take(m), tb: take(m), tc: take(m), tmp: take(m),
		diff: take(3 * e.T), rBits: take(k), prefix: take(k),
	}
}

// newSecret carves a zeroed M-word sharing from the slab.
func (e *Engine) newSecret() Secret {
	w := e.ws()
	if len(w.slab) < e.M {
		w.slab = make([]uint64, max(slabWords/e.M, 1)*e.M)
	}
	s := w.slab[:e.M:e.M]
	w.slab = w.slab[e.M:]
	return Secret{shares: s}
}

// NewEngine creates an engine for an m-party committee (m ≥ 3). The
// threshold is the strict majority ⌊m/2⌋+1, the honest-majority setting.
func NewEngine(m int) (*Engine, error) {
	if m < 3 {
		return nil, fmt.Errorf("mpc: committee of %d is too small", m)
	}
	e := &Engine{M: m, T: m/2 + 1}
	e.lagrange = lagrangeAtZero(e.T)
	return e, nil
}

// Stats returns a copy of the execution statistics.
func (e *Engine) Stats() Stats { return e.stats }

// lagrangeAtZero precomputes ℓ_i(0) for evaluation points 1..t.
func lagrangeAtZero(t int) []uint64 {
	out := make([]uint64, t)
	for i := 0; i < t; i++ {
		num, den := uint64(1), uint64(1)
		xi := uint64(i + 1)
		for j := 0; j < t; j++ {
			if j == i {
				continue
			}
			xj := uint64(j + 1)
			num = fmul(num, xj)
			den = fmul(den, fsub(xj, xi))
		}
		out[i] = fmul(num, finv(den))
	}
	return out
}

// shareInto writes a fresh degree-(T−1) sharing of v into dst.
func (e *Engine) shareInto(dst []uint64, v uint64) {
	d := e.ws().diff[:e.T]
	e.drawTable(d, v)
	for p := range dst {
		stepTable(d)
		dst[p] = d[0]
	}
}

// drawTable sets d to the forward differences at x = 0 of a fresh sharing
// polynomial f of v: d[0] = f(0) = v and d[1:] uniform. The differences
// Δ^k f(0) are a linear map of f's coefficients c_1 … c_{T−1}, triangular
// with diagonal k! ≠ 0 mod p, so uniform differences are exactly a uniform
// polynomial of degree at most T−1 through (0, v).
func (e *Engine) drawTable(d []uint64, v uint64) {
	d[0] = v
	for k := 1; k < len(d); k++ {
		d[k] = e.drawField()
	}
}

// stepTable moves a difference table from x to x+1, Δ^k f(x+1) = Δ^k f(x) +
// Δ^(k+1) f(x), leaving f(x+1) in d[0]: len(d)−1 additions and no
// multiplication.
func stepTable(d []uint64) {
	for k := 0; k+1 < len(d); k++ {
		d[k] = fadd(d[k], d[k+1])
	}
}

// shareValue creates a fresh degree-(T−1) sharing of v.
func (e *Engine) shareValue(v uint64) Secret {
	s := e.newSecret()
	e.shareInto(s.shares, v)
	return s
}

// Input shares a value known to one party (the owner distributes shares to
// the other m−1 parties; one round).
func (e *Engine) Input(owner int, v int64) (Secret, error) {
	if owner < 0 || owner >= e.M {
		return Secret{}, fmt.Errorf("mpc: owner %d out of range", owner)
	}
	s := e.shareValue(toField(v))
	e.stats.Rounds++
	e.stats.TotalBytes += int64(8 * (e.M - 1))
	return s, nil
}

// JointSecret shares a value sampled by the simulation on behalf of the
// whole committee (joint noise, dealer-assisted randomness): no single party
// learns it. One distribution round is charged. This models the committee's
// joint sampling step; see the package comment for the substitution note.
func (e *Engine) JointSecret(v int64) Secret {
	s := e.shareValue(toField(v))
	e.chargeBroadcastRound(1)
	return s
}

// chargeBroadcastRound charges k all-to-all broadcast values in one round.
func (e *Engine) chargeBroadcastRound(k int) {
	e.stats.Rounds++
	e.stats.TotalBytes += int64(8*k*(e.M-1)) * int64(e.M)
	if e.onRound != nil {
		e.onRound(e.stats.Rounds)
	}
}

// SetRoundObserver registers fn to be called after every broadcast round
// with the cumulative round count (nil disables). Like the rest of the
// engine it is driven from the coordinating goroutine only (see
// docs/CONCURRENCY.md); fn must not re-enter the engine.
func (e *Engine) SetRoundObserver(fn func(rounds int)) { e.onRound = fn }

// reconstruct recovers the secret from the first T shares, one reduction
// per dotFold products. It is the one opening path: Open, a
// multiplication's d and f, and Mod2m's c.
func (e *Engine) reconstruct(shares []uint64) uint64 {
	e.stats.LocalMults += int64(e.T)
	return dot(e.lagrange, shares)
}

// Open reveals a secret to all parties (one broadcast round).
func (e *Engine) Open(s Secret) int64 {
	e.stats.Opens++
	e.chargeBroadcastRound(1)
	return fromField(e.reconstruct(s.shares))
}

// Add returns a+b (local).
func (e *Engine) Add(a, b Secret) Secret {
	out := e.newSecret()
	for i := range out.shares {
		out.shares[i] = fadd(a.shares[i], b.shares[i])
	}
	return out
}

// Sub returns a−b (local).
func (e *Engine) Sub(a, b Secret) Secret {
	out := e.newSecret()
	for i := range out.shares {
		out.shares[i] = fsub(a.shares[i], b.shares[i])
	}
	return out
}

// AddConst returns a+k for public k (local).
func (e *Engine) AddConst(a Secret, k int64) Secret {
	kk := toField(k)
	out := e.newSecret()
	for i := range out.shares {
		out.shares[i] = fadd(a.shares[i], kk)
	}
	return out
}

// MulConst returns a·k for public k (local).
func (e *Engine) MulConst(a Secret, k int64) Secret {
	return e.mulConstField(a, toField(k))
}

// mulConstField is MulConst for a raw field constant.
func (e *Engine) mulConstField(a Secret, k uint64) Secret {
	out := e.newSecret()
	e.scaleInto(out.shares, a.shares, k)
	return out
}

// scaleInto writes k·a into dst, one local multiplication per share; dst
// may be a.
func (e *Engine) scaleInto(dst, a []uint64, k uint64) {
	for i := range dst {
		dst[i] = fmul(a[i], k)
	}
	e.stats.LocalMults += int64(e.M)
}

// oneMinusInto writes 1 − a into dst; dst may be a. It is charged as the
// MulConst by −1 it fuses with the AddConst of 1.
func (e *Engine) oneMinusInto(dst, a []uint64) {
	for i := range dst {
		dst[i] = fsub(1, a[i])
	}
	e.stats.LocalMults += int64(e.M)
}

// --- dealer (preprocessing) ---

// drawWord returns the next 64 bits of the dealer's stream.
//
// The stream is AES-256 in counter mode, the core of NIST SP 800-90A's
// CTR_DRBG: each engine gets a fresh uniformly random key from crypto/rand
// that no other engine or stream ever uses, the IV is zero and the counter
// is 128 bits wide, and an engine's lifetime draws are far below 2^32
// blocks. So no feasible test tells the stream from crypto/rand output, and
// with AES in hardware it costs a fraction of crypto/rand's getrandom call
// per block. Nothing released rests on it: a Beaver product and a
// comparison are exact whatever the triples and bits hold; only the
// shares' hiding does.
func (e *Engine) drawWord() uint64 {
	w := e.ws()
	if w.pos == randBlock {
		clear(w.rnd[:])
		w.stream.XORKeyStream(w.rnd[:], w.rnd[:])
		w.pos = 0
	}
	v := binary.LittleEndian.Uint64(w.rnd[w.pos:])
	w.pos += 8
	return v
}

// drawField returns a uniform field element: a word's top 60 bits are
// uniform below 2^60, and rejecting those ≥ p (probability 2^−46) leaves
// them uniform below p.
func (e *Engine) drawField() uint64 {
	for {
		if v := e.drawWord() >> 4; v < fieldPrime {
			return v
		}
	}
}

// drawBits returns n ≤ 64 uniform bits, taken from one raw word until it
// runs out.
func (e *Engine) drawBits(n int) uint64 {
	w := e.ws()
	if n > w.nbits {
		w.bits, w.nbits = e.drawWord(), 64
	}
	v := w.bits & (uint64(1)<<uint(n) - 1)
	w.bits >>= uint(n)
	w.nbits -= n
	return v
}

// randomBitInto writes a fresh sharing of a uniform bit, known to the
// dealer only (preprocessing), into dst.
func (e *Engine) randomBitInto(dst []uint64) {
	e.stats.RandBits++
	e.stats.DealerBytes += int64(8 * e.M)
	e.shareInto(dst, e.drawBits(1))
}

// randomBoundedInto writes a fresh sharing of a uniform value in
// [0, 2^bits) into dst.
func (e *Engine) randomBoundedInto(dst []uint64, bitsN int) {
	e.stats.DealerBytes += int64(8 * e.M)
	e.shareInto(dst, e.drawBits(bitsN))
}

// --- multiplication ---

// Mul returns a·b via a Beaver triple (one communication round: the two
// maskings open together).
func (e *Engine) Mul(a, b Secret) Secret {
	out := e.newSecret()
	e.mulInto(out.shares, a.shares, b.shares)
	return out
}

// mulInto writes a·b into dst. The dealer deals the triple (ta, tb, tc =
// ta·tb) into scratch in one pass over the parties, stepping its three
// difference tables together; d = a − ta and f = b − tb are opened
// together in one round, and only dst is written. dst may be a or b.
func (e *Engine) mulInto(dst, a, b []uint64) {
	w, t := e.ws(), e.T
	da, db, dc := w.diff[:t], w.diff[t:2*t], w.diff[2*t:3*t]
	x, y := e.drawField(), e.drawField()
	e.drawTable(da, x)
	e.drawTable(db, y)
	e.drawTable(dc, fmul(x, y))
	e.stats.Triples++
	e.stats.DealerBytes += int64(3 * 8 * e.M)
	ta, tb, tc := w.ta, w.tb[:len(w.ta)], w.tc[:len(w.ta)]
	for p := range ta {
		// stepTable on the three tables at once: three independent chains.
		for k := 0; k+1 < t; k++ {
			da[k] = fadd(da[k], da[k+1])
			db[k] = fadd(db[k], db[k+1])
			dc[k] = fadd(dc[k], dc[k+1])
		}
		ta[p], tb[p], tc[p] = da[0], db[0], dc[0]
	}
	// The first T shares of d = a − ta and f = b − tb go over the spent
	// tables.
	for i := range da {
		da[i] = fsub(a[i], ta[i])
		db[i] = fsub(b[i], tb[i])
	}
	e.stats.Opens += 2
	e.chargeBroadcastRound(2)
	dv, fv := e.reconstruct(da), e.reconstruct(db)
	// z = c + d·b + f·a + d·f, one reduction per share.
	df := fmul(dv, fv)
	for i := range dst {
		dst[i] = mulAdd2(tb[i], dv, ta[i], fv, tc[i]+df)
	}
	e.stats.LocalMults += int64(2 * e.M)
}

// Select returns x if bit=1 else y: y + bit·(x−y), one multiplication.
// bit must be a sharing of 0 or 1.
func (e *Engine) Select(bit, x, y Secret) Secret {
	diff := e.ws().tmp
	for i := range diff {
		diff[i] = fsub(x.shares[i], y.shares[i])
	}
	out := e.newSecret()
	e.mulInto(out.shares, bit.shares, diff)
	for i := range out.shares {
		out.shares[i] = fadd(y.shares[i], out.shares[i])
	}
	return out
}

// Sum adds a slice of secrets (local).
func (e *Engine) Sum(vals []Secret) (Secret, error) {
	if len(vals) == 0 {
		return Secret{}, errors.New("mpc: empty sum")
	}
	acc := e.newSecret()
	copy(acc.shares, vals[0].shares)
	for _, v := range vals[1:] {
		for i := range acc.shares {
			acc.shares[i] = fadd(acc.shares[i], v.shares[i])
		}
	}
	return acc, nil
}

// Transfer re-shares secrets held by one committee into another committee's
// MPC — the share-level core of the verifiable secret redistribution that
// Arboretum uses between consecutive MPC vignettes (Section 5.4): each
// member of the sending committee re-shares its share of every secret into
// the receiving committee, and the receivers combine the sub-shares with the
// senders' Lagrange coefficients. (The commitment-verification layer lives
// in internal/vsr; the runtime uses it for key material, and this for
// in-protocol values.) Both engines record the communication: one round
// however many secrets move, and per secret the bytes and local
// multiplications of moving it alone.
func Transfer(from *Engine, ss []Secret, to *Engine) []Secret {
	// Lagrange coefficients for the sending committee's first T points.
	lambda := from.lagrange
	out := make([]Secret, len(ss))
	sub := to.ws().tmp
	for k, s := range ss {
		out[k] = to.newSecret()
		for i := 0; i < from.T; i++ {
			to.shareInto(sub, s.shares[i])
			for j := range out[k].shares {
				out[k].shares[j] = fadd(out[k].shares[j], fmul(lambda[i], sub[j]))
			}
		}
	}
	// Each sender distributes its sub-shares of every secret to every
	// receiver in one round; receivers combine locally.
	n := int64(len(ss))
	from.stats.Rounds++
	from.stats.TotalBytes += n * int64(8*to.M) * int64(from.T)
	to.stats.LocalMults += n * int64(from.T*to.M)
	return out
}
