package runtime

import (
	"errors"
	"fmt"

	"arboretum/internal/ahe"
	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
	"arboretum/internal/mpc"
	"arboretum/internal/privacy"
	"arboretum/internal/sortition"
)

// valueKind classifies runtime values by confidentiality state, mirroring
// the encryption-type inference of Section 4.5: public (declassified or
// never sensitive), AHE ciphertexts at the aggregator, and secret shares
// inside a committee MPC.
type valueKind int

const (
	vPublic valueKind = iota
	vPublicArr
	vCipher
	vCipherArr
	vShared
	vSharedArr
)

// value is one runtime value. Public numbers use Q30.16 fixed point;
// ciphertext values are integer-valued Paillier ciphertexts. Shared values
// remember the committee whose MPC holds their shares — vignettes chained on
// the same committee keep using it, while fresh ciphertext inputs can move
// to the next committee (Section 5.4's committee-to-committee hand-offs).
type value struct {
	kind valueKind
	num  fixed.Fixed
	arr  []fixed.Fixed
	ct   *ahe.Ciphertext
	cts  []*ahe.Ciphertext
	sec  mpc.Secret
	secs []mpc.Secret
	eng  *committeeExec // owner of sec/secs
}

func pub(v fixed.Fixed) value      { return value{kind: vPublic, num: v} }
func pubArr(v []fixed.Fixed) value { return value{kind: vPublicArr, arr: v} }

func (v value) isArr() bool {
	return v.kind == vPublicArr || v.kind == vCipherArr || v.kind == vSharedArr
}

func (v value) length() int {
	switch v.kind {
	case vPublicArr:
		return len(v.arr)
	case vCipherArr:
		return len(v.cts)
	case vSharedArr:
		return len(v.secs)
	default:
		return 0
	}
}

// interp executes one query over a deployment.
type interp struct {
	dep       *Deployment
	km        *keyMaterial
	ce        *committeeExec        // the current operations committee
	pool      []sortition.Committee // spare committees for rotation
	poolIdx   int
	env       map[string]value
	outputs   []fixed.Fixed
	dbSums    []*ahe.Ciphertext // aggregated column sums, set by run.go
	sens      int64
	uses      map[lang.Pos]privacy.MechanismUse // the certificate's ε and k, by call site
	emVariant mechanism.EMVariant               // plan.Plan.EMVariant
}

// mechanismUses indexes the certificate's mechanism call sites by position.
func mechanismUses(cert *privacy.Certificate) map[lang.Pos]privacy.MechanismUse {
	uses := make(map[lang.Pos]privacy.MechanismUse, len(cert.Mechanisms))
	for _, m := range cert.Mechanisms {
		uses[m.Pos] = m
	}
	return uses
}

// use returns what the certifier decided for a mechanism call — the ε it
// runs at and, for topk, the most winners it may release — so the run stays
// within what the certificate charges.
func (ip *interp) use(ex *lang.CallExpr) (privacy.MechanismUse, error) {
	m, ok := ip.uses[ex.Position()]
	if !ok {
		return m, fmt.Errorf("%v: %s call is not in the privacy certificate", ex.Position(), ex.Func)
	}
	return m, nil
}

// rotate moves execution to the next spare committee: the private key is
// redistributed via VSR and a fresh MPC engine starts (Section 5.2/5.4).
// Rotation happens at mechanism boundaries whose inputs are ciphertexts —
// values already shared stay with the committee holding their shares. With
// the pool exhausted, the current committee keeps serving.
func (ip *interp) rotate() error {
	if ip.poolIdx >= len(ip.pool) {
		return nil
	}
	next := ip.pool[ip.poolIdx]
	ip.poolIdx++
	if err := ip.km.handoff(ip.dep, next); err != nil {
		return err
	}
	ce, err := ip.dep.newCommittee(next)
	if err != nil {
		return err
	}
	ip.ce.flushMetrics()
	ip.ce = ce
	return nil
}

// runVignette executes the vignette at call site site under the recovery
// policy: the protocol runs against a committee with fault injection armed;
// a degraded committee (too much churn, but still a reconstructing majority)
// is replaced from the sortition pool and the attempt repeats with the shares
// re-dealt to the new members. Any other failure — a broken committee, a
// protocol error — fails closed immediately. The health gates inside the
// protocols run before every open or decrypt, so a failed attempt opened only
// values it had finished computing: none for em and laplace, whose one open
// ends the protocol, so their retry draws fresh noise; for topk, the winners
// of its completed rounds, so its retry resumes after them (topKSelect).
// Either way a vignette opens each of its noised values once, within the
// privacy charge taken up front — Deployment.spent counts every open, failed
// attempts included.
func (ip *interp) runVignette(site lang.Pos, input value, protocol func(ce *committeeExec, in value) (value, error)) (value, error) {
	seq := ip.dep.vignetteSeq
	ip.dep.vignetteSeq++
	ce, err := ip.mechanismEngine(input)
	if err != nil {
		return value{}, err
	}
	var lastErr error
	for attempt := 0; attempt < vignetteBackoff.attempts; attempt++ {
		// Attempt boundaries are cancellation checkpoints: no protocol step
		// is in flight and nothing has been released, so aborting here
		// releases nothing.
		if err := ip.dep.checkpoint("vignette attempt"); err != nil {
			return value{}, err
		}
		if attempt > 0 {
			ip.dep.Metrics.VignetteRetries++
			ip.dep.Metrics.BackoffSimulated += vignetteBackoff.delay(attempt - 1)
		}
		ce.beginVignette(seq, attempt, site)
		out, err := protocol(ce, input)
		ce.endVignette()
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, ErrCommitteeDegraded) {
			return value{}, err // fail closed: broken committee or protocol error
		}
		lastErr = err
		ce, input, err = ip.reform(ce, input)
		if err != nil {
			return value{}, err
		}
	}
	return value{}, fmt.Errorf("runtime: vignette %d did not complete after %d attempts: %w",
		seq, vignetteBackoff.attempts, lastErr)
}

// reform replaces a degraded committee with the next spare from the
// sortition pool: the key hand-off re-deals from the surviving share-holders
// (the lost members cannot contribute dealings), live shared values migrate
// to the new committee's MPC, and the vignette input follows them.
func (ip *interp) reform(broken *committeeExec, input value) (*committeeExec, value, error) {
	if ip.poolIdx >= len(ip.pool) {
		return nil, value{}, fmt.Errorf("%w: cannot replace degraded committee", ErrNoSpareCommittee)
	}
	next := ip.pool[ip.poolIdx]
	ip.poolIdx++
	ip.dep.Metrics.Reformations++
	if ip.km.holder.Equal(broken.members) {
		// The degraded committee holds the key: its lost members cannot
		// deal, so mark them before the hand-off skips them.
		ip.km.markLost(broken.lost)
	}
	if err := ip.km.handoff(ip.dep, next); err != nil {
		return nil, value{}, err
	}
	ce, err := ip.dep.newCommittee(next)
	if err != nil {
		return nil, value{}, err
	}
	// Migrate every live value held by the broken committee. Map iteration
	// order does not matter: Transfer moves each value independently and the
	// byte/round metrics are order-insensitive sums.
	for name, v := range ip.env {
		if v.eng == broken {
			moved, err := ip.toSharedIn(ce, v)
			if err != nil {
				return nil, value{}, err
			}
			ip.env[name] = moved
		}
	}
	if input.eng == broken {
		moved, err := ip.toSharedIn(ce, input)
		if err != nil {
			return nil, value{}, err
		}
		input = moved
	}
	broken.flushMetrics()
	if ip.ce == broken {
		ip.ce = ce
	}
	return ce, input, nil
}

// engineOf returns the committee where an operation on the given values
// should run: the first shared operand's committee, or the current one when
// none are shared. Operands held by other committees are migrated into it
// by toSharedIn's VSR-style transfer.
func (ip *interp) engineOf(vals ...value) (*committeeExec, error) {
	for _, v := range vals {
		if v.eng != nil {
			return v.eng, nil
		}
	}
	return ip.ce, nil
}

func (ip *interp) run(stmts []lang.Stmt) error {
	for _, s := range stmts {
		// Statement boundaries are cancellation checkpoints: nothing is
		// half-open between statements, so a deadline-canceled run aborts
		// here without a vignette in flight.
		if err := ip.dep.checkpoint("statement"); err != nil {
			return err
		}
		if err := ip.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (ip *interp) stmt(s lang.Stmt) error {
	switch st := s.(type) {
	case *lang.AssignStmt:
		v, err := ip.eval(st.Value)
		if err != nil {
			return err
		}
		if st.Index == nil {
			ip.env[st.Name] = v
			return nil
		}
		iv, err := ip.eval(st.Index)
		if err != nil {
			return err
		}
		if iv.kind != vPublic {
			return fmt.Errorf("%v: array index must be public", s.Position())
		}
		return ip.setIndex(st.Name, int(iv.num.Int()), v)
	case *lang.ExprStmt:
		_, err := ip.eval(st.X)
		return err
	case *lang.ForStmt:
		fromV, err := ip.eval(st.From)
		if err != nil {
			return err
		}
		toV, err := ip.eval(st.To)
		if err != nil {
			return err
		}
		if fromV.kind != vPublic || toV.kind != vPublic {
			return fmt.Errorf("%v: loop bounds must be public", s.Position())
		}
		for i := fromV.num.Int(); i <= toV.num.Int(); i++ {
			ip.env[st.Var] = pub(fixed.FromInt(i))
			if err := ip.run(st.Body); err != nil {
				return err
			}
		}
		return nil
	case *lang.IfStmt:
		cv, err := ip.eval(st.Cond)
		if err != nil {
			return err
		}
		if cv.kind != vPublic {
			return fmt.Errorf("%v: top-level branch on a confidential value (the planner keeps those inside committee vignettes)", s.Position())
		}
		if cv.num != 0 {
			return ip.run(st.Then)
		}
		return ip.run(st.Else)
	default:
		return fmt.Errorf("runtime: unknown statement %T", s)
	}
}

// setIndex assigns arr[i] = v, auto-extending public arrays.
func (ip *interp) setIndex(name string, i int, v value) error {
	cur, ok := ip.env[name]
	if !ok {
		cur = pubArr(nil)
	}
	switch cur.kind {
	case vPublicArr:
		if v.kind != vPublic {
			// Element kinds promote the whole array.
			return ip.promoteAndSet(name, cur, i, v)
		}
		for len(cur.arr) <= i {
			cur.arr = append(cur.arr, 0)
		}
		cur.arr[i] = v.num
		ip.env[name] = cur
		return nil
	case vSharedArr:
		if v.kind != vShared {
			return fmt.Errorf("runtime: mixing shared array %s with %v element", name, v.kind)
		}
		if v.eng != cur.eng {
			moved, err := ip.toSharedIn(cur.eng, v)
			if err != nil {
				return err
			}
			v = moved
		}
		for len(cur.secs) <= i {
			cur.secs = append(cur.secs, cur.eng.engine.JointSecret(0))
		}
		cur.secs[i] = v.sec
		ip.env[name] = cur
		return nil
	case vCipherArr:
		if v.kind != vCipher {
			return fmt.Errorf("runtime: mixing cipher array %s with %v element", name, v.kind)
		}
		for len(cur.cts) <= i {
			zero, err := ip.km.pub.Encrypt(cryptoRand(), bigZero())
			if err != nil {
				return err
			}
			cur.cts = append(cur.cts, zero)
		}
		cur.cts[i] = v.ct
		ip.env[name] = cur
		return nil
	default:
		return fmt.Errorf("runtime: %s is not an array", name)
	}
}

// promoteAndSet upgrades a public array to the element's kind.
func (ip *interp) promoteAndSet(name string, cur value, i int, v value) error {
	switch v.kind {
	case vShared:
		secs := make([]mpc.Secret, len(cur.arr))
		for j, f := range cur.arr {
			secs[j] = v.eng.engine.JointFixed(f)
		}
		ip.env[name] = value{kind: vSharedArr, secs: secs, eng: v.eng}
	case vCipher:
		cts := make([]*ahe.Ciphertext, 0, len(cur.arr))
		for _, f := range cur.arr {
			ct, err := ip.km.pub.Encrypt(cryptoRand(), bigFromFixed(f))
			if err != nil {
				return err
			}
			cts = append(cts, ct)
		}
		ip.env[name] = value{kind: vCipherArr, cts: cts}
	default:
		return fmt.Errorf("runtime: cannot promote array %s to %v", name, v.kind)
	}
	return ip.setIndex(name, i, v)
}

// toSharedIn converts a value into the given committee's MPC (the dec()
// insertion of Section 4.5 when a confidential value enters a committee
// vignette). Shares held by another committee migrate via a VSR-style
// re-sharing transfer (Section 5.4).
func (ip *interp) toSharedIn(ce *committeeExec, v value) (value, error) {
	switch v.kind {
	case vShared, vSharedArr:
		if v.eng == ce {
			return v, nil
		}
		ip.dep.Metrics.VSRTransfers++
		if v.kind == vShared {
			return value{
				kind: vShared, eng: ce,
				sec: mpc.Transfer(v.eng.engine, v.sec, ce.engine),
			}, nil
		}
		secs := make([]mpc.Secret, len(v.secs))
		for i, s := range v.secs {
			secs[i] = mpc.Transfer(v.eng.engine, s, ce.engine)
		}
		return value{kind: vSharedArr, secs: secs, eng: ce}, nil
	case vPublic:
		return value{kind: vShared, sec: ce.engine.JointFixed(v.num), eng: ce}, nil
	case vCipher:
		secs, err := ce.decryptToShares(ip.km, []*ahe.Ciphertext{v.ct})
		if err != nil {
			return value{}, err
		}
		return value{kind: vShared, sec: secs[0], eng: ce}, nil
	case vCipherArr:
		secs, err := ce.decryptToShares(ip.km, v.cts)
		if err != nil {
			return value{}, err
		}
		return value{kind: vSharedArr, secs: secs, eng: ce}, nil
	case vPublicArr:
		secs := make([]mpc.Secret, len(v.arr))
		for i, f := range v.arr {
			secs[i] = ce.engine.JointFixed(f)
		}
		return value{kind: vSharedArr, secs: secs, eng: ce}, nil
	default:
		return value{}, fmt.Errorf("runtime: cannot share value of kind %v", v.kind)
	}
}

func (ip *interp) eval(e lang.Expr) (value, error) {
	switch ex := e.(type) {
	case *lang.IntLit:
		return pub(fixed.FromInt(ex.Value)), nil
	case *lang.FloatLit:
		return pub(fixed.FromFloat(ex.Value)), nil
	case *lang.BoolLit:
		if ex.Value {
			return pub(fixed.One), nil
		}
		return pub(0), nil
	case *lang.Ident:
		if ex.Name == "db" {
			return value{}, fmt.Errorf("%v: db can only appear inside sum(db)", ex.Position())
		}
		v, ok := ip.env[ex.Name]
		if !ok {
			return value{}, fmt.Errorf("%v: undefined variable %q", ex.Position(), ex.Name)
		}
		return v, nil
	case *lang.IndexExpr:
		xv, err := ip.eval(ex.X)
		if err != nil {
			return value{}, err
		}
		iv, err := ip.eval(ex.Index)
		if err != nil {
			return value{}, err
		}
		if iv.kind != vPublic {
			return value{}, fmt.Errorf("runtime: array index must be public")
		}
		i := int(iv.num.Int())
		if i < 0 || i >= xv.length() {
			return value{}, fmt.Errorf("runtime: index %d out of range (len %d)", i, xv.length())
		}
		switch xv.kind {
		case vPublicArr:
			return pub(xv.arr[i]), nil
		case vCipherArr:
			return value{kind: vCipher, ct: xv.cts[i]}, nil
		case vSharedArr:
			return value{kind: vShared, sec: xv.secs[i], eng: xv.eng}, nil
		default:
			return value{}, fmt.Errorf("runtime: indexing non-array")
		}
	case *lang.UnaryExpr:
		xv, err := ip.eval(ex.X)
		if err != nil {
			return value{}, err
		}
		switch ex.Op {
		case lang.SUB:
			return ip.negate(xv)
		case lang.NOT:
			if xv.kind != vPublic {
				return value{}, fmt.Errorf("runtime: ! on confidential value")
			}
			if xv.num == 0 {
				return pub(fixed.One), nil
			}
			return pub(0), nil
		}
		return value{}, fmt.Errorf("runtime: unknown unary op %v", ex.Op)
	case *lang.BinaryExpr:
		return ip.binary(ex)
	case *lang.CallExpr:
		return ip.call(ex)
	default:
		return value{}, fmt.Errorf("runtime: unknown expression %T", e)
	}
}

func (ip *interp) negate(v value) (value, error) {
	switch v.kind {
	case vPublic:
		return pub(v.num.Neg()), nil
	case vShared:
		return value{kind: vShared, sec: v.eng.engine.MulConst(v.sec, -1), eng: v.eng}, nil
	case vCipher:
		ct, err := ip.km.pub.MulPlain(v.ct, bigNegOne())
		if err != nil {
			return value{}, err
		}
		return value{kind: vCipher, ct: ct}, nil
	default:
		return value{}, fmt.Errorf("runtime: cannot negate %v", v.kind)
	}
}
