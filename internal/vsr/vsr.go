// Package vsr implements Verifiable Secret Redistribution: the protocol
// Arboretum uses to hand secrets (the private key, intermediate MPC state)
// from one committee to the next (Sections 5.2 and 5.4). As long as both the
// old and the new committee have an honest majority, the new committee can
// reconstruct the secret, and malicious members of the two committees cannot
// collude to recover it.
//
// Each member of the old committee re-shares its share to the new committee
// with a fresh Shamir polynomial and publishes Feldman commitments
// g^{a_k} to the polynomial's coefficients; new members combine their
// sub-shares with the Lagrange coefficients of the old committee's
// evaluation points and verify the result against the commitments. The
// paper uses the Extended VSR implementation from Mycelium; this is a
// from-scratch implementation of the same protocol family (see DESIGN.md).
//
// The commitments live in a Schnorr group (DefaultGroup): a 1,536-bit prime
// P and a 513-bit prime order Q dividing P−1. Secrets are shared in Z_Q, so
// a secret must lie below Q; the runtime shares a wider key prime in 512-bit
// limbs, one sharing each.
//
// Redistribute makes one Feldman check per new member, of its combined
// share, rather than one per sub-share, and loops VerifySubShare only to
// blame a dealing once that check has failed (finish; docs/KERNELS.md, "One
// Feldman check per member").
package vsr

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"

	"arboretum/internal/fixed"
	"arboretum/internal/fixedbase"
	"arboretum/internal/parallel"
	"arboretum/internal/shamir"
)

// ErrInsufficientShares is returned when fewer dealings or old shares than
// the reconstruction threshold are available — the fail-closed signal the
// runtime's re-dealing recovery path matches on: with a surviving honest
// majority it retries the hand-off from the survivors' shares, and below the
// threshold the secret is unrecoverable and the query must abort.
var ErrInsufficientShares = errors.New("vsr: insufficient shares for threshold")

// Group is a Schnorr group: commitments live in the order-Q subgroup of
// Z_P* generated by G, and shared secrets live in Z_Q.
//
// The sharing field and the commitment comb are built from P, Q and G on
// first use and shared read-only after that, so a Group is safe for
// concurrent use and its fields must not change once Field or Commit has
// run.
type Group struct {
	P *big.Int // prime modulus; Q divides P−1
	Q *big.Int // prime order of G, and the sharing field
	G *big.Int // generator of the order-Q subgroup

	fieldOnce sync.Once
	field     *shamir.Field

	combOnce sync.Once
	comb     *fixedbase.Table // for G mod P, walked by Commit
	scratch  fixed.Pool[commitScratch]
}

// commitScratch is one commitment's working state; Commit copies the result
// out before returning it to the pool.
type commitScratch struct {
	exp []byte  // v mod Q as little-endian bytes, one per byte of Q
	x   big.Int // v mod Q
	acc big.Int // G^x mod P
	quo big.Int // v div Q, discarded
	fb  fixedbase.Scratch
}

// The default group's constants, in hex. They are the result of a
// deterministic search from the label "arboretum/vsr/schnorr-1536-513",
// which TestDefaultGroupDerivation re-runs. The label's stream for a tag is
// SHA-256(label/tag ‖ i) for i = 0, 1, … (i as four big-endian bytes),
// concatenated, and its first n bytes are read as a big-endian integer.
//
//  1. Q is the first prime at or above the "q" stream's 65 bytes shifted
//     right by 7 bits with bit 512 set, so 2^512 < Q < 2^513.
//  2. P = k·Q + 1 for the first k, counting up by 2 from ⌊x/Q⌋ rounded down
//     to even, x the "k" stream's 192 bytes with bit 1535 set, that makes P
//     a 1,536-bit prime.
//  3. G = h^((P−1)/Q) mod P for the first h ≥ 2 that gives G ≠ 1.
const (
	groupQ = "183F8B221823672696566BEA73AF5F00B56A9283F23FF886" +
		"D8B6DE2B72CE5108EF2970763BFB15DF7823D8F532D02843" +
		"50134D080172BC0959D58B722DD8A8F45"
	groupP = "D964CE8F12642A13CD9FC16230490F67C5813DAABCCD4990" +
		"3CDEDE4FAB27768F68A65895E52D335F47198CD31F23BCE7" +
		"821DEF7DB324E9B181B98CF9001B1A866A666647EB9F3EBE" +
		"8C9A196C9FC948211C031D08D32F7CFFF6299312AEE5A89B" +
		"D6F1D4D6AF19E0C5FD609D8173F420FADDB0E25AE97EE38F" +
		"9BB1AB3924D232B98664FBE5A08A06F2F97CE5494F00C914" +
		"C2EBAAC872FD04A7A52CDA60B59D57DF7F2B4491B7DE1D5B" +
		"1D53FDFDFCBE164B14603601EC67BD76DE8447CC22BC551B"
	groupG = "822CEFB5C892D09F138BB081E70117EBD0C232B024A17A43" +
		"D8D07DF6B341CB6047E3B99D6EF859A7D21B7B82CA5DA3CD" +
		"C94AD4999A9164960C84EBCB9030FF15A360E94B5391A686" +
		"C999BC24491A88DC4F3D9580D2A4ECBDDE9BBADB036461ED" +
		"70362370449E5D3FB4BCB40876585F764C19C1231FCF79BB" +
		"464E821E0D04C3A138431FB7F55BA1863BFB48AA3167E71E" +
		"5161F5643468966BBB82852037CE8B4849BCED67DC81CBD5" +
		"2D42F17A6C74B624870AB1125FEE9200F9A3E0902E9565E9"
)

// defaultGroup is parsed once; TestDefaultGroupSanity validates the
// constants (P and Q prime, Q | P−1, G of order Q).
var defaultGroup = func() *Group {
	parse := func(hex string) *big.Int {
		v, ok := new(big.Int).SetString(hex, 16)
		if !ok {
			panic("vsr: bad built-in group constant")
		}
		return v
	}
	return &Group{P: parse(groupP), Q: parse(groupQ), G: parse(groupG)}
}()

// DefaultGroup returns the built-in Schnorr group: a 1,536-bit prime P, the
// discrete-log strength of the RFC 3526 1,536-bit group, and a 513-bit prime
// order Q, so every commitment exponent is 65 bytes and every secret below
// 2^512 fits the sharing field. The group is shared: callers must not modify
// it.
func DefaultGroup() *Group { return defaultGroup }

// Field returns the Z_q sharing field of the group. The first call builds it
// (shamir.MustField, whose 20-round primality test of Q is the field's
// validation) and every call returns that one field, which is shared:
// callers must not modify it.
func (g *Group) Field() *shamir.Field {
	g.fieldOnce.Do(func() { g.field = shamir.MustField(g.Q) })
	return g.field
}

// Commit returns G^v mod P, with v reduced mod Q. It walks a fixed-base comb
// for G that the first call builds, in the largest shape, since the group's
// comb serves every commitment for the life of the process.
func (g *Group) Commit(v *big.Int) *big.Int {
	g.combOnce.Do(func() {
		n := (g.Q.BitLen() + 7) / 8
		g.comb = fixedbase.New(g.G, g.P, n, math.MaxInt)
		g.scratch.New = func() *commitScratch { return &commitScratch{exp: make([]byte, n)} }
	})
	s := g.scratch.Get()
	defer g.scratch.Put(s)
	s.quo.DivMod(v, g.Q, &s.x)
	s.x.FillBytes(s.exp) // big-endian; the comb reads little-endian
	for i, j := 0, len(s.exp)-1; i < j; i, j = i+1, j-1 {
		s.exp[i], s.exp[j] = s.exp[j], s.exp[i]
	}
	g.comb.Exp(&s.acc, &s.fb, s.exp)
	return new(big.Int).Set(&s.acc)
}

// Dealing is what one old-committee member sends: fresh sub-shares of its
// share for every new-committee member, plus Feldman commitments to the
// re-sharing polynomial's coefficients.
type Dealing struct {
	FromX       int64          // the old member's evaluation point
	SubShares   []shamir.Share // one per new member, indexed by position
	Commitments []*big.Int     // g^{a_k}, k = 0..t'−1
}

// draw makes a dealing without its commitments: the sub-shares and the
// re-sharing polynomial the commitments are to be made to.
func draw(g *Group, share shamir.Share, newN, newT int) (*Dealing, *shamir.Polynomial, error) {
	if newN < newT || newT < 1 {
		return nil, nil, fmt.Errorf("vsr: invalid committee newN=%d newT=%d", newN, newT)
	}
	poly, err := g.Field().RandomPolynomial(share.Y, newT)
	if err != nil {
		return nil, nil, err
	}
	d := &Dealing{FromX: share.X, SubShares: make([]shamir.Share, newN)}
	for j := range d.SubShares {
		d.SubShares[j] = shamir.Share{X: int64(j + 1), Y: poly.Eval(int64(j + 1))}
	}
	return d, poly, nil
}

// VerifySubShare checks new member j's sub-share against the dealing's
// Feldman commitments: the sub-share must be addressed to j (X = j) and
// satisfy g^{y} == Π_k C_k^{j^k}.
func VerifySubShare(g *Group, d *Dealing, j int) bool {
	if d == nil || j < 1 || j > len(d.SubShares) {
		return false
	}
	sub := d.SubShares[j-1]
	if sub.X != int64(j) {
		return false
	}
	lhs := g.Commit(sub.Y)
	rhs := big.NewInt(1)
	x := big.NewInt(sub.X)
	xPow := big.NewInt(1)
	for _, c := range d.Commitments {
		term := new(big.Int).Exp(c, xPow, g.P)
		rhs.Mul(rhs, term)
		rhs.Mod(rhs, g.P)
		xPow.Mul(xPow, x)
		xPow.Mod(xPow, g.Q)
	}
	return lhs.Cmp(rhs) == 0
}

// Combine computes new member j's share of the original secret from the
// verified dealings of at least oldT old members: s'_j = Σ_i λ_i · subshare_{i,j},
// where λ_i are the Lagrange coefficients of the old evaluation points.
func Combine(g *Group, dealings []*Dealing, j int, oldT int) (shamir.Share, error) {
	if len(dealings) < oldT {
		return shamir.Share{}, fmt.Errorf("need %d dealings, have %d: %w", oldT, len(dealings), ErrInsufficientShares)
	}
	use := dealings[:oldT]
	field := g.Field()
	xs := make([]int64, len(use))
	for i, d := range use {
		if j < 1 || j > len(d.SubShares) {
			return shamir.Share{}, errors.New("vsr: member index out of range in dealing")
		}
		xs[i] = d.FromX
	}
	lambda, err := field.LagrangeCoefficients(xs)
	if err != nil {
		return shamir.Share{}, err
	}
	y := new(big.Int)
	for i, d := range use {
		term := new(big.Int).Mul(lambda[i], d.SubShares[j-1].Y)
		y.Add(y, term)
		y.Mod(y, g.Q)
	}
	return shamir.Share{X: int64(j), Y: y}, nil
}

// Redistribute runs the whole protocol for an honest execution: every old
// member deals, every new member verifies its sub-shares and combines. It
// returns the new committee's shares and an error if any verification fails.
// The runtime uses this for committee-to-committee hand-offs; tests also
// drive the individual steps to exercise malicious behaviour.
//
// The members run on the worker pool, as they run side by side in the real
// protocol: one task per dealer drawing its polynomial and sub-shares, one
// per (dealer, coefficient) commitment, one per combined commitment, then
// one per new member checking and combining (see finish). Shares come back
// in member order, and the lowest-index failure is the one reported, at
// every worker count.
//
// One check is not made: no new member compares a dealing's commitment to
// its re-shared value, g^{s_i}, with the old sharing's published commitment.
// Sub-shares are checked against the dealer's own polynomial only, so an old
// member that re-shares a wrong value goes undetected here
// (TestWrongShareCommitmentDetected shows the comparison that would catch it).
func Redistribute(g *Group, oldShares []shamir.Share, oldT, newN, newT int) ([]shamir.Share, error) {
	if len(oldShares) < oldT {
		return nil, fmt.Errorf("need %d old shares, have %d: %w", oldT, len(oldShares), ErrInsufficientShares)
	}
	type drawn struct {
		d    *Dealing
		poly *shamir.Polynomial
	}
	draws, err := parallel.Map(oldT, 0, func(i int) (drawn, error) {
		d, poly, err := draw(g, oldShares[i], newN, newT)
		return drawn{d, poly}, err
	})
	if err != nil {
		return nil, err
	}
	commits, err := parallel.Map(oldT*newT, 0, func(c int) (*big.Int, error) {
		return g.Commit(draws[c/newT].poly.Coeffs[c%newT]), nil
	})
	if err != nil {
		return nil, err
	}
	dealings := make([]*Dealing, oldT)
	for i, dr := range draws {
		dr.d.Commitments = commits[i*newT : (i+1)*newT : (i+1)*newT]
		dealings[i] = dr.d
	}
	return finish(g, dealings, newN)
}

// finish is the new committee's half of a hand-off from the dealings of
// exactly the old threshold's dealers. Rather than one Feldman check per
// sub-share, each member j makes one check of its combined share s′_j
// (docs/KERNELS.md, "One Feldman check per member"):
//
//   - weights gives integers D and a_i with D·λ_i = a_i exactly, λ_i the
//     Lagrange coefficients of the dealers' points;
//   - the combined commitments E⁺_k = Π_{a_i>0} C_ik^{a_i} and
//     E⁻_k = Π_{a_i<0} C_ik^{−a_i} mod P are formed once per hand-off;
//   - member j checks every sub-share is addressed to it (X = j), runs
//     Combine, and accepts iff G^{D·s′_j} · Π_k (E⁻_k)^{j^k} ≡ Π_k (E⁺_k)^{j^k}.
//
// One comb walk per member instead of one per dealing. When every sub-share
// passes VerifySubShare the check holds, so a failed check means some
// dealing fails it: only then does the member loop VerifySubShare over the
// dealings, to name the lowest failing one. The
// check is sound for the member's share: it passes exactly when s′_j lies on
// F = Σ λ_i f_i, whose constant term F(0) = Σ λ_i s_i is the secret, so
// sub-share errors that cancel in the combination leave the new sharing
// correct.
func finish(g *Group, dealings []*Dealing, newN int) ([]shamir.Share, error) {
	xs := make([]int64, len(dealings))
	for i, d := range dealings {
		xs[i] = d.FromX
	}
	D, a, err := weights(xs)
	if err != nil {
		return nil, err
	}
	nk := 0
	for _, d := range dealings {
		nk = max(nk, len(d.Commitments))
	}
	type combined struct{ pos, neg *big.Int }
	es, err := parallel.Map(nk, 0, func(k int) (combined, error) {
		e := combined{big.NewInt(1), big.NewInt(1)}
		t := new(big.Int)
		for i, d := range dealings {
			if k >= len(d.Commitments) {
				continue
			}
			acc := e.pos
			if a[i].Sign() < 0 {
				acc = e.neg
			}
			t.Exp(d.Commitments[k], t.Abs(a[i]), g.P)
			acc.Mul(acc, t).Mod(acc, g.P)
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	return parallel.Map(newN, 0, func(m int) (shamir.Share, error) {
		j := m + 1
		ok := true
		for _, d := range dealings {
			ok = ok && j <= len(d.SubShares) && d.SubShares[j-1].X == int64(j)
		}
		var s shamir.Share
		if ok {
			var err error
			if s, err = Combine(g, dealings, j, len(dealings)); err != nil {
				return shamir.Share{}, err
			}
			// Horner over k: h(E) = Π_k E_k^{j^k}.
			bj := big.NewInt(int64(j))
			hPos, hNeg := big.NewInt(1), big.NewInt(1)
			for k := nk - 1; k >= 0; k-- {
				hPos.Exp(hPos, bj, g.P).Mul(hPos, es[k].pos).Mod(hPos, g.P)
				hNeg.Exp(hNeg, bj, g.P).Mul(hNeg, es[k].neg).Mod(hNeg, g.P)
			}
			lhs := g.Commit(new(big.Int).Mul(D, s.Y))
			lhs.Mul(lhs, hNeg).Mod(lhs, g.P)
			ok = lhs.Cmp(hPos) == 0
		}
		if ok {
			return s, nil
		}
		for i, d := range dealings {
			if !VerifySubShare(g, d, j) {
				return shamir.Share{}, fmt.Errorf("vsr: member %d rejected dealing from x=%d (%d)", j, d.FromX, i)
			}
		}
		return shamir.Share{}, fmt.Errorf("vsr: member %d rejected its combined share", j)
	})
}

// weights returns integer Lagrange weights for the evaluation points xs:
// with λ_i = num_i/den_i the coefficient of point i at 0 (num_i = Π_{m≠i} x_m,
// den_i = Π_{m≠i} (x_m − x_i)), D = lcm|den_i| and a_i = num_i·D/den_i, so
// D·λ_i = a_i exactly and, mod Q, a_i ≡ D·λ_i. The points must be nonzero
// and distinct, as shamir.Field.LagrangeCoefficients requires.
func weights(xs []int64) (D *big.Int, a []*big.Int, err error) {
	seen := make(map[int64]bool, len(xs))
	for _, x := range xs {
		if x == 0 || seen[x] {
			return nil, nil, fmt.Errorf("vsr: bad evaluation point x=%d", x)
		}
		seen[x] = true
	}
	num := make([]*big.Int, len(xs))
	den := make([]*big.Int, len(xs))
	D = big.NewInt(1)
	gcd := new(big.Int)
	for i, xi := range xs {
		num[i], den[i] = big.NewInt(1), big.NewInt(1)
		for m, xm := range xs {
			if m != i {
				num[i].Mul(num[i], big.NewInt(xm))
				den[i].Mul(den[i], big.NewInt(xm-xi))
			}
		}
		// D = lcm(D, |den_i|) = D·|den_i| / gcd(D, |den_i|).
		abs := new(big.Int).Abs(den[i])
		gcd.GCD(nil, nil, D, abs)
		D.Mul(D, abs.Quo(abs, gcd))
	}
	a = make([]*big.Int, len(xs))
	for i := range xs {
		a[i] = new(big.Int).Quo(D, den[i])
		a[i].Mul(a[i], num[i])
	}
	return D, a, nil
}
