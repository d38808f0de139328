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
// The dealer draws from crypto/rand only, a block at a time, into a stream
// its engine owns. A triple is dealt into engine scratch and never outlives
// its multiplication, and a comparison's random bits and prefix products
// stay in scratch too. Every Secret the engine returns is carved from an
// engine-owned slab that is never recycled. None of this is locked: an
// engine is driven from one goroutine (docs/CONCURRENCY.md).
//
// Values are field elements of internal/bgv's 60-bit prime field (the paper
// sets the MPC modulus to BGV's ciphertext modulus). Signed integers up to
// ValueBits bits are embedded centered; fixed-point values reuse
// internal/fixed's Q30.16 scaling.
package mpc

import (
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
	// protocols. ValueBits + kappaStat must stay below the 60-bit field.
	// (A deployment would use ≥ 40; the paper's MP-SPDZ programs use 40.
	// The reduced test value keeps everything inside one word — documented
	// simulation parameter, DESIGN.md.)
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
	perParty    []int64
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

// randBlock is how many bytes of crypto/rand output the dealer reads at a
// time.
const randBlock = 4096

// slabWords sizes each share slab: every Secret the engine returns is an
// M-word piece of one.
const slabWords = 1024

// workspace is an engine's dealer stream, share slab and scratch. Like the
// engine it is driven from the coordinating goroutine only.
type workspace struct {
	// rnd is a block of crypto/rand output; rnd[pos:] is unread.
	rnd [randBlock]byte
	pos int
	// bits holds nbits unread random bits for drawBits.
	bits  uint64
	nbits int
	// slab is the uncarved tail of the current share slab. It is only ever
	// carved forward: a full slab is replaced, never reused.
	slab []uint64
	// Scratch that no Secret outlives: a Beaver triple's three sharings, one
	// local temporary, a sharing polynomial's T coefficients, and a
	// comparison's dealer bits and prefix products (ValueBits−1 sharings
	// each).
	ta, tb, tc, tmp, coeffs, rBits, prefix []uint64
}

// ws returns the engine's workspace, making it on first use.
func (e *Engine) ws() *workspace {
	if e.work == nil {
		m, k := e.M, (ValueBits-1)*e.M
		s := make([]uint64, 4*m+e.T+2*k)
		take := func(n int) []uint64 {
			v := s[:n:n]
			s = s[n:]
			return v
		}
		e.work = &workspace{
			pos: randBlock,
			ta:  take(m), tb: take(m), tc: take(m), tmp: take(m),
			coeffs: take(e.T), rBits: take(k), prefix: take(k),
		}
	}
	return e.work
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
	e.stats.perParty = make([]int64, m)
	e.lagrange = lagrangeAtZero(e.T)
	return e, nil
}

// Stats returns a copy of the execution statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.perParty = append([]int64(nil), e.stats.perParty...)
	return s
}

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
	c := e.ws().coeffs
	c[0] = v
	for i := 1; i < e.T; i++ {
		c[i] = e.drawField()
	}
	for p := range dst {
		x := uint64(p + 1)
		acc := c[e.T-1]
		for i := e.T - 2; i >= 0; i-- {
			acc = fadd(fmul(acc, x), c[i])
		}
		dst[p] = acc
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
	sent := int64(8 * (e.M - 1))
	e.stats.TotalBytes += sent
	e.stats.perParty[owner] += sent
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
	per := int64(8 * k * (e.M - 1))
	for p := 0; p < e.M; p++ {
		e.stats.perParty[p] += per
	}
	e.stats.TotalBytes += per * int64(e.M)
	if e.onRound != nil {
		e.onRound(e.stats.Rounds)
	}
}

// SetRoundObserver registers fn to be called after every broadcast round
// with the cumulative round count (nil disables). Like the rest of the
// engine it is driven from the coordinating goroutine only (see
// docs/CONCURRENCY.md); fn must not re-enter the engine.
func (e *Engine) SetRoundObserver(fn func(rounds int)) { e.onRound = fn }

// reconstruct recovers the secret from the first T shares.
func (e *Engine) reconstruct(shares []uint64) uint64 {
	acc := uint64(0)
	for i, l := range e.lagrange {
		acc = fadd(acc, fmul(l, shares[i]))
	}
	e.stats.LocalMults += int64(e.T)
	return acc
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

// drawWord returns the next 64 bits of the dealer's crypto/rand stream.
func (e *Engine) drawWord() uint64 {
	w := e.ws()
	if w.pos == randBlock {
		if _, err := rand.Read(w.rnd[:]); err != nil {
			panic("mpc: randomness unavailable: " + err.Error())
		}
		w.pos = 0
	}
	v := binary.LittleEndian.Uint64(w.rnd[w.pos:])
	w.pos += 8
	return v
}

// drawField returns a uniform field element.
func (e *Engine) drawField() uint64 {
	for {
		// Rejection sampling over a multiple of the prime keeps it unbiased.
		if v := e.drawWord(); v < fieldPrime*16 {
			return v % fieldPrime
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

// dealTriple deals a fresh Beaver triple (a, b, ab) into the workspace's
// scratch; it is valid until the next triple.
func (e *Engine) dealTriple() (ta, tb, tc []uint64) {
	w := e.ws()
	a := e.drawField()
	b := e.drawField()
	e.stats.Triples++
	e.stats.DealerBytes += int64(3 * 8 * e.M)
	e.shareInto(w.ta, a)
	e.shareInto(w.tb, b)
	e.shareInto(w.tc, fmul(a, b))
	return w.ta, w.tb, w.tc
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

// mulInto writes a·b into dst. The triple lives in scratch: d = a − ta and
// f = b − tb are opened together in one round, and only dst is written. dst
// may be a or b.
func (e *Engine) mulInto(dst, a, b []uint64) {
	ta, tb, tc := e.dealTriple()
	e.stats.Opens += 2
	e.chargeBroadcastRound(2)
	var dv, fv uint64
	for i, l := range e.lagrange {
		dv = fadd(dv, fmul(l, fsub(a[i], ta[i])))
		fv = fadd(fv, fmul(l, fsub(b[i], tb[i])))
	}
	// z = c + d·b + f·a + d·f
	df := fmul(dv, fv)
	for i := range dst {
		dst[i] = fadd(fadd(fadd(tc[i], fmul(tb[i], dv)), fmul(ta[i], fv)), df)
	}
	e.stats.LocalMults += int64(2*e.T + 2*e.M)
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

// Transfer re-shares a secret held by one committee into another committee's
// MPC — the share-level core of the verifiable secret redistribution that
// Arboretum uses between consecutive MPC vignettes (Section 5.4): each
// member of the sending committee re-shares its share into the receiving
// committee, and the receivers combine the sub-shares with the senders'
// Lagrange coefficients. (The commitment-verification layer lives in
// internal/vsr; the runtime uses it for key material, and this for
// in-protocol values.) Both engines record the communication.
func Transfer(from *Engine, s Secret, to *Engine) Secret {
	// Lagrange coefficients for the sending committee's first T points.
	lambda := from.lagrange
	out := to.newSecret()
	sub := to.ws().tmp
	for i := 0; i < from.T; i++ {
		to.shareInto(sub, s.shares[i])
		for j := range out.shares {
			out.shares[j] = fadd(out.shares[j], fmul(lambda[i], sub[j]))
		}
	}
	// Each sender distributes sub-shares to every receiver (one round);
	// receivers combine locally.
	from.stats.Rounds++
	sent := int64(8 * to.M)
	for i := 0; i < from.T && i < from.M; i++ {
		from.stats.perParty[i] += sent
	}
	from.stats.TotalBytes += sent * int64(from.T)
	to.stats.LocalMults += int64(from.T * to.M)
	return out
}
