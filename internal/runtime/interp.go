package runtime

import (
	"errors"
	"fmt"
	"slices"

	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
	"arboretum/internal/mpc"
	"arboretum/internal/privacy"
	"arboretum/internal/sortition"
)

// valueKind classifies runtime values by confidentiality state, mirroring
// the encryption-type inference of Section 4.5 after collection: public
// (declassified or never sensitive) or secret shares inside a committee MPC.
// The AHE ciphertexts end at the one decryption (Deployment.unpack).
type valueKind int

const (
	vPublic valueKind = iota
	vPublicArr
	vShared
	vSharedArr
)

var kindNames = [...]string{
	vPublic: "public", vPublicArr: "public array",
	vShared: "shared", vSharedArr: "shared array",
}

func (k valueKind) String() string { return kindNames[k] }

// value is one runtime value, in Q30.16 fixed point. Shared values remember
// the committee whose MPC holds their shares — vignettes chained on the same
// committee keep using it, while inputs the decryption committee still holds
// move to the next committee (Section 5.4's committee-to-committee
// hand-offs).
type value struct {
	kind valueKind
	num  fixed.Fixed
	arr  []fixed.Fixed
	sec  mpc.Secret
	secs []mpc.Secret
	eng  *committeeExec // owner of sec/secs
}

func pub(v fixed.Fixed) value      { return value{kind: vPublic, num: v} }
func pubArr(v []fixed.Fixed) value { return value{kind: vPublicArr, arr: v} }

func (v value) isArr() bool {
	return v.kind == vPublicArr || v.kind == vSharedArr
}

func (v value) length() int {
	switch v.kind {
	case vPublicArr:
		return len(v.arr)
	case vSharedArr:
		return len(v.secs)
	default:
		return 0
	}
}

// interp executes one query over a deployment.
type interp struct {
	dep        *Deployment
	ce         *committeeExec        // the current operations committee
	pool       []sortition.Committee // spare committees not yet formed
	committees []*committeeExec      // every committee the query formed
	env        map[string]value
	outputs    []fixed.Fixed
	db         value               // sum(db): the counts, shared in the decryption committee
	sites      map[lang.Pos]site   // the certificate's mechanism call sites and their noise
	emVariant  mechanism.EMVariant // plan.Plan.EMVariant
}

// site is a mechanism call site as the run executes it: the certifier's row
// — the ε it runs at, the sensitivity its noise is sized by and, for topk,
// the most winners it may release — and that noise.
type site struct {
	privacy.MechanismUse
	noise noise
}

// sitesOf sizes the noise of every mechanism call site in cert before the
// run selects, charges or collects anything, so a noise Q30.16 cannot hold
// fails the run closed up front.
func sitesOf(cert *privacy.Certificate, variant mechanism.EMVariant) (map[lang.Pos]site, error) {
	sites := make(map[lang.Pos]site, len(cert.Mechanisms))
	for _, m := range cert.Mechanisms {
		n, err := noiseFor(m, variant)
		if err != nil {
			return nil, err
		}
		sites[m.Pos] = site{m, n}
	}
	return sites, nil
}

// site returns a mechanism call's site, so the run stays within what the
// certificate charges.
func (ip *interp) site(ex *lang.CallExpr) (site, error) {
	s, ok := ip.sites[ex.Position()]
	if !ok {
		return s, fmt.Errorf("%v: %s call is not in the privacy certificate", ex.Position(), ex.Func)
	}
	return s, nil
}

// ErrNoiseScale is the fail-closed refusal of a mechanism call whose noise
// Q30.16 cannot hold: a Laplace or Gumbel scale of 2^30 or more saturates at
// fixed.Max (too little noise), and the exponentiate variant's rate
// k = ε/(2·sensitivity) rounds to 0 past sensitivity ε·2^16 (a uniform draw
// that ignores the scores). A run returns it before it selects a committee.
var ErrNoiseScale = errors.New("runtime: noise scale outside the Q30.16 range")

// noise is a mechanism call's noise, sized from its certificate row.
type noise struct {
	eps      float64     // the call's ε, spent at each release
	scale    fixed.Fixed // b: sensitivity/ε for laplace, 2·sensitivity/ε for em and topk
	rate     float64     // em and topk: ε/(2·sensitivity), the exponentiate variant's k
	integral bool        // laplace on an Int-typed argument: whole-number noise
}

// laplace draws one Laplace(scale) noise, truncated toward zero to a whole
// number for an Int-typed argument, so a count stays a whole number.
func (n noise) laplace(rng mechanism.Rand) fixed.Fixed {
	v := mechanism.Laplace(rng, n.scale)
	if n.integral {
		v = fixed.FromInt(v.Int())
	}
	return v
}

// noiseFor is the one place a mechanism's noise is sized: from the call's
// certified sensitivity and ε, and the plan's em variant, nothing else. (The
// rounding direction of scale and rate is ROADMAP item 2's.)
func noiseFor(use privacy.MechanismUse, variant mechanism.EMVariant) (noise, error) {
	sens := float64(use.Sensitivity)
	n := noise{eps: use.CallEpsilon, scale: fixed.FromFloat(sens / use.CallEpsilon), integral: use.Integral}
	if use.Func != "laplace" {
		n.scale = fixed.FromFloat(2 * sens / use.CallEpsilon)
		n.rate = use.CallEpsilon / (2 * sens)
	}
	if n.scale == fixed.Max ||
		use.Func == "em" && variant == mechanism.EMExponentiate && fixed.FromFloat(n.rate) == 0 {
		return n, fmt.Errorf("%v: %s at sensitivity %d and ε = %g: %w",
			use.Pos, use.Func, use.Sensitivity, use.CallEpsilon, ErrNoiseScale)
	}
	return n, nil
}

// rotate moves execution to the next spare committee, where a fresh MPC
// engine starts (Section 5.4). Rotation happens at mechanism boundaries
// whose inputs the decryption committee still holds (mechanismEngine);
// values an operations committee shares stay with it. With the pool
// exhausted, the current committee keeps serving.
func (ip *interp) rotate() error {
	ce, err := ip.takeSpare()
	if ce != nil {
		ip.ce = ce
	}
	return err
}

// runVignette executes the vignette at call site site under the recovery
// policy: the protocol runs against a committee with fault injection armed;
// a degraded committee (too much churn, but still a reconstructing majority)
// is replaced from the sortition pool and the attempt repeats with the shares
// re-dealt to the new members. Any other failure — a broken committee, a
// protocol error — fails closed immediately. The health gates inside the
// protocols run before every open, so a failed attempt opened only
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
		if err := checkpoint(ip.dep.runCtx, "vignette attempt"); err != nil {
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
// sortition pool: live shared values migrate to the new committee's MPC, and
// the vignette input follows them. (The key is not used after the one
// decryption, so nothing of it moves.)
func (ip *interp) reform(broken *committeeExec, input value) (*committeeExec, value, error) {
	ce, err := ip.takeSpare()
	if err != nil {
		return nil, value{}, err
	}
	if ce == nil {
		return nil, value{}, fmt.Errorf("%w: cannot replace degraded committee", ErrNoSpareCommittee)
	}
	ip.dep.Metrics.Reformations++
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
	if ip.ce == broken {
		ip.ce = ce
	}
	return ce, input, nil
}

// engineOf returns the committee where an operation on the given values
// should run: the first shared operand's committee, or the current one when
// none are shared. Operands held by other committees are migrated into it
// by toSharedIn's VSR-style transfer.
func (ip *interp) engineOf(vals ...value) *committeeExec {
	for _, v := range vals {
		if v.eng != nil {
			return v.eng
		}
	}
	return ip.ce
}

func (ip *interp) run(stmts []lang.Stmt) error {
	for _, s := range stmts {
		// Statement boundaries are cancellation checkpoints: nothing is
		// half-open between statements, so a deadline-canceled run aborts
		// here without a vignette in flight.
		if err := checkpoint(ip.dep.runCtx, "statement"); err != nil {
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
			// An array is copied on assignment: setIndex writes in place,
			// and through a shared slice it would write into another
			// name's array or into the counts sum(db) hands out.
			v.arr, v.secs = slices.Clone(v.arr), slices.Clone(v.secs)
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
		// An array grows to the index it is written at, up to the array
		// builtin's bound.
		i := iv.num.Int()
		if i < 0 || i >= 1<<20 {
			return fmt.Errorf("%v: array index %d outside [0, 2^20)", s.Position(), i)
		}
		return ip.setIndex(st.Name, int(i), v)
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

// setIndex assigns arr[i] = v, auto-extending arrays. A shared array
// shares a public element; a shared element moves a public array to shares
// in its committee.
func (ip *interp) setIndex(name string, i int, v value) error {
	if v.isArr() {
		return fmt.Errorf("runtime: cannot store a %v in an element of %s", v.kind, name)
	}
	cur, ok := ip.env[name]
	if !ok {
		cur = pubArr(nil)
	}
	if cur.kind == vPublicArr && v.kind == vShared {
		shared, err := ip.toSharedIn(v.eng, cur)
		if err != nil {
			return err
		}
		cur = shared
	}
	switch cur.kind {
	case vPublicArr:
		for len(cur.arr) <= i {
			cur.arr = append(cur.arr, 0)
		}
		cur.arr[i] = v.num
		ip.env[name] = cur
		return nil
	case vSharedArr:
		sh, err := ip.toSharedIn(cur.eng, v)
		if err != nil {
			return err
		}
		for len(cur.secs) <= i {
			cur.secs = append(cur.secs, cur.eng.engine.JointSecret(0))
		}
		cur.secs[i] = sh.sec
		ip.env[name] = cur
		return nil
	default:
		return fmt.Errorf("runtime: %s is not an array", name)
	}
}

// toSharedIn converts a value into the given committee's MPC. Shares held
// by another committee migrate via a VSR-style re-sharing transfer (Section
// 5.4); public values are shared jointly.
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
				sec: mpc.Transfer(v.eng.engine, []mpc.Secret{v.sec}, ce.engine)[0],
			}, nil
		}
		return value{kind: vSharedArr, secs: mpc.Transfer(v.eng.engine, v.secs, ce.engine), eng: ce}, nil
	case vPublic:
		return value{kind: vShared, sec: ce.engine.JointFixed(v.num), eng: ce}, nil
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
	default:
		return value{}, fmt.Errorf("runtime: cannot negate %v", v.kind)
	}
}
