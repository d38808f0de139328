// Package privacy certifies queries as differentially private and derives
// sensitivity bounds (Section 4.2). The paper adopts the approach from Fuzzi,
// which handles explicit and implicit flows; this package implements the
// subset of that analysis the evaluation queries need:
//
//   - conservative taint tracking from db (explicit flows);
//   - a "noised" lattice level for mechanism outputs, so that declassify is
//     accepted only for values whose dependence on the data passes through a
//     DP mechanism (including control-flow dependence, the implicit-flow
//     case of Figure 4's exponentiation variant);
//   - ε accounting across mechanism invocations (sequential composition),
//     loop-aware — a topk call is its k peeled rounds, k mechanisms — with
//     secrecy-of-the-sample amplification;
//   - a sensitivity bound per mechanism call site, from the database row
//     shape and clip ranges, with loop bodies walked to a fixpoint.
//
// Programs that try to output raw tainted data, or declassify values that
// never passed through a mechanism, are rejected.
package privacy

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
	"arboretum/internal/types"
)

// defaultEpsilon is the ε of a mechanism call without a literal ε argument
// (the evaluation setup).
const defaultEpsilon = 0.1

// MechanismUse records one mechanism call site found in the query. It is the
// one reading of the call's ε, of the bound on topk's k and of the call's
// sensitivity: the certificate is charged from it, and the runtime executes
// the call at Pos with CallEpsilon, noise sized by Sensitivity, and at most K
// winners released, so what runs is within what was charged.
type MechanismUse struct {
	Func        string   // laplace | em | topk
	Pos         lang.Pos // the call site
	CallEpsilon float64  // the ε the mechanism runs at: the call's argument, or the default
	K           int64    // topk: the winner count charged for (k's inferred upper bound); 0 otherwise
	Epsilon     float64  // per-invocation ε charged: CallEpsilon, or K·CallEpsilon for topk's K rounds
	Invocations int64    // static count (loops multiply)
	Sensitivity int64    // how far one row moves argument 0 (the value or every score), at least 1
	Integral    bool     // laplace: argument 0 is Int-typed, a whole number, so its noise is too
}

// Certificate is the result of a successful certification.
type Certificate struct {
	Epsilon    float64 // total ε under sequential composition
	Delta      float64 // δ from finite-precision tail clipping (Section 6)
	SampleRate float64 // secrecy-of-the-sample rate the bin window realizes, 1 if unsampled
	Mechanisms []MechanismUse
}

// taint levels form a small lattice: Public ⊑ Noised ⊑ Sensitive.
type taint int

const (
	public taint = iota
	noised
	sensitive
)

func (t taint) join(o taint) taint {
	if o > t {
		return o
	}
	return t
}

// deltaPerMechanism is the δ added by clipping distribution tails to the
// fixed-point range (Section 6: "the use of finite-range data types adds a
// small δ"). 2^-40 matches the 40 bits of statistical security.
const deltaPerMechanism = 1.0 / (1 << 40)

// ErrUnboundedSensitivity is the refusal of a mechanism argument that one row
// can move without limit: no finite noise scale covers it. The error names
// the call site and wraps this sentinel, so callers (the gateway's
// not_private refusal among them) can test for it with errors.Is.
var ErrUnboundedSensitivity = errors.New("mechanism argument with unbounded sensitivity (one row can move it without limit)")

// ErrEpsilonOverflow refuses a query whose ε does not fit a float64 — most
// often a sampled one, whose amplification overflows e^ε past ε ≈ 709 — so
// there is no finite price to charge.
var ErrEpsilonOverflow = errors.New("ε overflows a float64")

// ErrUnboundedLoop refuses a loop nest whose trip counts (types.Info.LoopIters)
// multiply past maxLoopWork, the bound the runtime's array builtin puts on a
// length, so admission bounds a query's work before any budget is reserved.
// The error names the loop and wraps this sentinel.
var ErrUnboundedLoop = fmt.Errorf("loop nest runs its body more than %d times", maxLoopWork)

const maxLoopWork = 1 << 20

// ErrWalkBudget refuses a program whose loop bodies take the certifier more
// than maxBodyWalks walks in all, however short each loop is: it bounds the
// certifier's own work, not the query's. The error names the loop at which
// the budget ran out and wraps this sentinel.
var ErrWalkBudget = fmt.Errorf("certifier's walk budget exhausted (%d loop-body walks in all)", maxBodyWalks)

// Certify checks the program and returns its privacy certificate. The types
// result supplies loop extents and clip ranges.
func Certify(p *lang.Program, info *types.Info) (*Certificate, error) {
	c := &certifier{
		info: info,
		vars: map[string]taint{"db": sensitive},
		sens: map[string]float64{"db": info.DB.ElemRange.Width()},
		cert: &Certificate{SampleRate: 1},
		hist: histograms(p.Stmts),
	}
	if err := c.stmts(p.Stmts, 1, public); err != nil {
		return nil, err
	}
	for _, m := range c.cert.Mechanisms {
		c.cert.Epsilon += m.Epsilon * float64(m.Invocations)
		c.cert.Delta += deltaPerMechanism * float64(m.Invocations*max(m.K, 1))
	}
	if !c.sawOutput {
		return nil, fmt.Errorf("privacy: query never calls output")
	}
	// Amplification by sampling applies to the whole ε (Section 2.1).
	if c.cert.SampleRate < 1 {
		amp, err := mechanism.AmplifyBySampling(c.cert.Epsilon, c.cert.SampleRate)
		if err != nil {
			return nil, fmt.Errorf("privacy: %v", err)
		}
		c.cert.Epsilon = amp
	}
	if math.IsInf(c.cert.Epsilon, 1) {
		return nil, fmt.Errorf("privacy: %w", ErrEpsilonOverflow)
	}
	return c.cert, nil
}

type certifier struct {
	info      *types.Info
	vars      map[string]taint
	sens      map[string]float64 // per-variable sensitivity bound
	cert      *Certificate
	sawOutput bool
	sampledAt lang.Pos        // the query's one sampleUniform call, once seen
	hist      map[string]bool // names whose one assignment is sum(db)
	loops     []*loopCtx      // the loops around the statement being walked
	walks     int             // loop-body walks so far
}

// stmts walks a statement list. mult is the static invocation multiplier
// from enclosing loops; ctx is the control-flow taint (implicit flows).
func (c *certifier) stmts(ss []lang.Stmt, mult int64, ctx taint) error {
	for _, s := range ss {
		if err := c.stmt(s, mult, ctx); err != nil {
			return err
		}
	}
	return nil
}

func (c *certifier) stmt(s lang.Stmt, mult int64, ctx taint) error {
	switch st := s.(type) {
	case *lang.AssignStmt:
		t, err := c.expr(st.Value, mult)
		if err != nil {
			return err
		}
		s := c.sensExpr(st.Value)
		if x := c.accumulated(st); x != nil {
			s = c.sensExpr(x)
		}
		if st.Index != nil {
			it, err := c.expr(st.Index, mult)
			if err != nil {
				return err
			}
			t = t.join(it)
			if it == sensitive {
				s = math.Inf(1) // a row picks which element changes
			}
			// Element assignment joins into the whole array's taint and bound.
			t = t.join(c.vars[st.Name])
			s = math.Max(s, c.sens[st.Name])
		}
		if ctx == sensitive {
			s = math.Inf(1) // a row picks whether, or how often, this runs
		}
		c.vars[st.Name] = t.join(ctx) // implicit flow from the enclosing condition
		c.sens[st.Name] = s
		return nil
	case *lang.ExprStmt:
		_, err := c.expr(st.X, mult)
		return err
	case *lang.ForStmt:
		// mult ≤ maxLoopWork, so neither the test nor the product wraps.
		iters := c.info.LoopIters(st)
		if iters > maxLoopWork/mult {
			return fmt.Errorf("%v: %w", st.Position(), ErrUnboundedLoop)
		}
		// The bounds are expressions like any other: a mechanism call in one
		// is charged, and what the trip count depends on flows into the loop
		// variable and, implicitly, into everything the body assigns.
		fromT, err := c.expr(st.From, mult)
		if err != nil {
			return err
		}
		toT, err := c.expr(st.To, mult)
		if err != nil {
			return err
		}
		bounds := fromT.join(toT)
		c.vars[st.Var], c.sens[st.Var] = bounds, 0
		if bounds == sensitive {
			c.sens[st.Var] = math.Inf(1)
		}
		return c.loop(st, mult*iters, ctx.join(bounds), iters)
	case *lang.IfStmt:
		condT, err := c.expr(st.Cond, mult)
		if err != nil {
			return err
		}
		// Each branch starts from the state before the if; after it, a
		// variable is as tainted and as sensitive as either branch left it.
		inner := ctx.join(condT)
		written := map[string]int{}
		countWrites(st.Then, written)
		countWrites(st.Else, written)
		entry := c.save(written)
		if err := c.stmts(st.Then, mult, inner); err != nil {
			return err
		}
		then := c.save(written)
		c.restore(entry)
		if err := c.stmts(st.Else, mult, inner); err != nil {
			return err
		}
		c.join(then)
		return nil
	default:
		return fmt.Errorf("privacy: unknown statement %T", s)
	}
}

// maxLoopPasses bounds the walks of one loop body before what still grows is
// widened, and maxBodyWalks the walks of all loop bodies in one program.
const (
	maxLoopPasses = 8
	maxBodyWalks  = 1 << 12
)

// loopCtx is the loop whose body is being walked.
type loopCtx struct {
	v      string         // the loop variable
	writes map[string]int // assignments to each name in the body, nested loops included
	later  bool           // a walk after the first
}

// loop certifies a loop body that runs iters times. An assignment that reads
// what an earlier iteration wrote (acc = acc + x) compounds across
// iterations, so the body is walked again from the join of the entry state
// and what the last walk left, until a walk changes nothing or there has been
// one walk per iteration; a bound still growing after maxLoopPasses walks
// becomes +Inf (clip can bound it again, a mechanism refuses it). Every walk
// records the body's mechanism calls afresh, so the certificate keeps what the
// last walk, whose entry state covers every iteration, saw.
func (c *certifier) loop(st *lang.ForStmt, mult int64, ctx taint, iters int64) error {
	l := &loopCtx{v: st.Var, writes: map[string]int{}}
	countWrites(st.Body, l.writes)
	c.loops = append(c.loops, l)
	defer func() { c.loops = c.loops[:len(c.loops)-1] }()
	for pass := int64(1); ; pass++ {
		if c.walks++; c.walks > maxBodyWalks {
			return fmt.Errorf("%v: %w", st.Position(), ErrWalkBudget)
		}
		before := c.save(l.writes)
		if err := c.stmts(st.Body, mult, ctx); err != nil {
			return err
		}
		if !c.join(before) || pass >= iters {
			return nil
		}
		if pass >= maxLoopPasses {
			for name, b := range before {
				if c.sens[name] > b.sens {
					c.sens[name] = math.Inf(1)
				}
			}
		}
		l.later = true
	}
}

// binding is what the certifier knows of one name.
type binding struct {
	taint taint
	sens  float64
}

// save returns the current bindings of names; a name not yet assigned is
// public and 0-sensitive.
func (c *certifier) save(names map[string]int) map[string]binding {
	out := make(map[string]binding, len(names))
	for name := range names {
		out[name] = binding{c.vars[name], c.sens[name]}
	}
	return out
}

func (c *certifier) restore(saved map[string]binding) {
	for name, b := range saved {
		c.vars[name], c.sens[name] = b.taint, b.sens
	}
}

// join sets each saved name to the join of its binding and the saved one,
// and reports whether any binding grew past the saved one.
func (c *certifier) join(saved map[string]binding) bool {
	grew := false
	for name, b := range saved {
		t, s := c.vars[name], c.sens[name]
		grew = grew || t > b.taint || s > b.sens
		c.vars[name], c.sens[name] = t.join(b.taint), math.Max(s, b.sens)
	}
	return grew
}

// countWrites adds the assignments in ss to writes, by name.
func countWrites(ss []lang.Stmt, writes map[string]int) {
	for _, s := range ss {
		switch st := s.(type) {
		case *lang.AssignStmt:
			writes[st.Name]++
		case *lang.ForStmt:
			writes[st.Var]++
			countWrites(st.Body, writes)
		case *lang.IfStmt:
			countWrites(st.Then, writes)
			countWrites(st.Else, writes)
		}
	}
}

// accumulated returns x when st, on a later walk of the innermost loop, adds
// a histogram cell to what its own target held: x = x + h[f] or
// x[g] = x[g′] + h[f] (either order), where h is sum(db) and never
// reassigned, f takes a new value at every value of the loop variable, and st
// is the body's only assignment to x. Over all iterations x then gains a sum
// of distinct cells, which one row moves by at most one cell's bound — the
// first walk charged that — so later walks charge x alone.
func (c *certifier) accumulated(st *lang.AssignStmt) lang.Expr {
	if len(c.loops) == 0 {
		return nil
	}
	l := c.loops[len(c.loops)-1]
	b, ok := st.Value.(*lang.BinaryExpr)
	if !l.later || !ok || b.Op != lang.ADD || l.writes[st.Name] != 1 {
		return nil
	}
	for _, xy := range [2][2]lang.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		if reads(xy[0], st.Name) && c.distinctCell(xy[1], l) {
			return xy[0]
		}
	}
	return nil
}

// reads reports whether e is name or an element of it.
func reads(e lang.Expr, name string) bool {
	if ix, ok := e.(*lang.IndexExpr); ok {
		e = ix.X
	}
	id, ok := e.(*lang.Ident)
	return ok && id.Name == name
}

// distinctCell reports whether e is h[f] for a histogram h and an index f
// that moves with the loop variable.
func (c *certifier) distinctCell(e lang.Expr, l *loopCtx) bool {
	ix, ok := e.(*lang.IndexExpr)
	if !ok {
		return false
	}
	h, ok := ix.X.(*lang.Ident)
	slope, affine := l.slope(ix.Index)
	return ok && c.hist[h.Name] && affine && slope != 0
}

// slope is how far e moves when the loop variable steps by one, for an e
// built by + and − from the variable, integers and names the body never
// assigns; affine is false for any other e.
func (l *loopCtx) slope(e lang.Expr) (slope int, affine bool) {
	switch ex := e.(type) {
	case *lang.IntLit:
		return 0, true
	case *lang.Ident:
		if ex.Name == l.v {
			return 1, l.writes[l.v] == 0
		}
		return 0, l.writes[ex.Name] == 0
	case *lang.BinaryExpr:
		x, okX := l.slope(ex.X)
		y, okY := l.slope(ex.Y)
		switch ex.Op {
		case lang.ADD:
			return x + y, okX && okY
		case lang.SUB:
			return x - y, okX && okY
		}
	}
	return 0, false
}

func (c *certifier) expr(e lang.Expr, mult int64) (taint, error) {
	switch ex := e.(type) {
	case *lang.IntLit, *lang.FloatLit, *lang.BoolLit:
		return public, nil
	case *lang.Ident:
		t, ok := c.vars[ex.Name]
		if !ok {
			return public, nil // undefined is a type error, not ours
		}
		return t, nil
	case *lang.IndexExpr:
		xt, err := c.expr(ex.X, mult)
		if err != nil {
			return sensitive, err
		}
		it, err := c.expr(ex.Index, mult)
		if err != nil {
			return sensitive, err
		}
		return xt.join(it), nil
	case *lang.UnaryExpr:
		return c.expr(ex.X, mult)
	case *lang.BinaryExpr:
		xt, err := c.expr(ex.X, mult)
		if err != nil {
			return sensitive, err
		}
		yt, err := c.expr(ex.Y, mult)
		if err != nil {
			return sensitive, err
		}
		return xt.join(yt), nil
	case *lang.CallExpr:
		return c.call(ex, mult)
	default:
		return sensitive, fmt.Errorf("privacy: unknown expression %T", e)
	}
}

func (c *certifier) call(ex *lang.CallExpr, mult int64) (taint, error) {
	argT := make([]taint, len(ex.Args))
	for i, a := range ex.Args {
		t, err := c.expr(a, mult)
		if err != nil {
			return sensitive, err
		}
		argT[i] = t
	}
	switch ex.Func {
	case "laplace", "em", "topk":
		m, err := c.mechanismUse(ex, mult)
		if err != nil {
			return sensitive, err
		}
		c.record(m)
		return noised, nil
	case "gumbel":
		// Raw Gumbel noise: output is noised only when added to something
		// by a surrounding mechanism; treat as public noise here.
		return public, nil
	case "declassify":
		if argT[0] == sensitive {
			return sensitive, fmt.Errorf("%v: declassify of a value that never passed through a DP mechanism",
				ex.Position())
		}
		return public, nil
	case "output":
		c.sawOutput = true
		if argT[0] == sensitive {
			return sensitive, fmt.Errorf("%v: output of raw sensitive data (use a mechanism and declassify)",
				ex.Position())
		}
		return public, nil
	case "sampleUniform":
		// One query, one sample: the certificate holds one rate, the
		// amplification theorem is applied once, and the runtime collects
		// once — a second call has nothing to mean.
		if c.sampledAt.Line > 0 {
			return sensitive, fmt.Errorf("%v: second sampleUniform call (the query already samples at %v)",
				ex.Position(), c.sampledAt)
		}
		c.sampledAt = ex.Position()
		// The runtime decrypts a window of whole bins, so the rate it
		// collects at, and the one ε is amplified by, is the window's x/b.
		if rate := c.floatArgValue(ex, 0, 1); rate > 0 && rate < 1 {
			c.cert.SampleRate = float64(mechanism.SampleWindow(rate)) / mechanism.SampleBinCount
		}
		return argT[0], nil
	case "len":
		// An array's length is public metadata (fixed by the query shape),
		// not a function of the data.
		return public, nil
	default:
		// Pure functions propagate the join of their arguments.
		t := public
		for _, a := range argT {
			t = t.join(a)
		}
		return t, nil
	}
}

// record keeps one mechanism use per call site: a later walk of a loop body
// replaces what an earlier one recorded. Certify composes the uses
// sequentially; each mechanism run clips its own tails, so a topk invocation
// adds K δ terms.
func (c *certifier) record(m MechanismUse) {
	if i := slices.IndexFunc(c.cert.Mechanisms, func(o MechanismUse) bool { return o.Pos == m.Pos }); i >= 0 {
		c.cert.Mechanisms[i] = m
		return
	}
	c.cert.Mechanisms = append(c.cert.Mechanisms, m)
}

// histograms returns the names whose only assignment in ss is sum(db): the
// column sums of one-hot rows, in which one row moves at most two cells.
func histograms(ss []lang.Stmt) map[string]bool {
	writes, hist := map[string]int{}, map[string]bool{}
	countWrites(ss, writes)
	for _, s := range ss {
		if st, ok := s.(*lang.AssignStmt); ok && st.Index == nil && writes[st.Name] == 1 && isSumDB(st.Value) {
			hist[st.Name] = true
		}
	}
	return hist
}

func isSumDB(e lang.Expr) bool {
	call, ok := e.(*lang.CallExpr)
	if !ok || call.Func != "sum" || len(call.Args) != 1 {
		return false
	}
	id, ok := call.Args[0].(*lang.Ident)
	return ok && id.Name == "db"
}

// mechanismUse reads a laplace, em or topk call by the one rule the three
// share: ε from its ε argument (topk's third, the others' second), K from
// topk's count, and the sensitivity of argument 0 — the released value, or
// the score array each of whose scores one row moves by at most that much.
func (c *certifier) mechanismUse(ex *lang.CallExpr, mult int64) (MechanismUse, error) {
	m := MechanismUse{Func: ex.Func, Pos: ex.Position(), Invocations: mult}
	epsIdx := 1
	if ex.Func == "topk" {
		epsIdx = 2
	}
	eps, err := c.epsArg(ex, epsIdx)
	if err != nil {
		return m, err
	}
	m.CallEpsilon, m.Epsilon = eps, eps
	if ex.Func == "topk" {
		if m.K, err = c.topkCount(ex); err != nil {
			return m, err
		}
		// The runtime peels K Gumbel-argmax rounds, each at the call's ε:
		// K pure-ε mechanisms, which compose to K·ε.
		m.Epsilon = eps * float64(m.K)
	}
	if t, ok := c.info.TypeOf(ex.Args[0]); ok && ex.Func == "laplace" {
		m.Integral = t.Kind == types.Int
	}
	m.Sensitivity, err = c.argSensitivity(ex)
	return m, err
}

// epsArg reads a mechanism call's ε: a literal argument, which must be
// positive (noise at ε ≤ 0 has no finite scale, so there is nothing to run
// and nothing to charge), or the default when the argument is absent or not
// a literal.
func (c *certifier) epsArg(ex *lang.CallExpr, idx int) (float64, error) {
	if idx < len(ex.Args) {
		switch ex.Args[idx].(type) {
		case *lang.FloatLit, *lang.IntLit:
			eps := c.floatArgValue(ex, idx, 0)
			if !(eps > 0) {
				return 0, fmt.Errorf("%v: %s with ε = %g (ε must be positive)", ex.Position(), ex.Func, eps)
			}
			return eps, nil
		}
	}
	return defaultEpsilon, nil
}

// topkCount bounds the number of winners a topk call releases — what its ε
// composes over — by the inferred upper bound of the k argument. The runtime
// evaluates k, so a k that is not a literal must be charged at its bound,
// not at a default; a bound past the scores' static length is refused, as
// the run would be.
func (c *certifier) topkCount(ex *lang.CallExpr) (int64, error) {
	t, ok := c.info.TypeOf(ex.Args[1])
	if !ok || !(t.Range.Hi >= 1 && t.Range.Hi < 1<<31) {
		return 0, fmt.Errorf("%v: topk needs a count k ≥ 1 with a known bound", ex.Position())
	}
	if s, _ := c.info.TypeOf(ex.Args[0]); s.Len > 0 && t.Range.Hi > float64(s.Len) {
		return 0, fmt.Errorf("%v: topk of up to %g winners from %d scores", ex.Position(), t.Range.Hi, s.Len)
	}
	return int64(t.Range.Hi), nil
}

func (c *certifier) floatArgValue(ex *lang.CallExpr, idx int, def float64) float64 {
	if idx < len(ex.Args) {
		switch lit := ex.Args[idx].(type) {
		case *lang.FloatLit:
			return lit.Value
		case *lang.IntLit:
			return float64(lit.Value)
		}
	}
	return def
}

// argSensitivity derives the sensitivity of a mechanism call from the
// tracked per-row influence of its argument 0 (Fuzzi's sensitivity
// analysis). An argument no row can move is charged at 1, the unclipped
// one-hot default. An unbounded one, such as a product of two sensitive
// values, or one past what an int64 holds, is refused with
// ErrUnboundedSensitivity.
func (c *certifier) argSensitivity(ex *lang.CallExpr) (int64, error) {
	s := c.sensExpr(ex.Args[0])
	switch {
	case !(s < 1<<62): // +Inf and NaN too
		return 0, fmt.Errorf("%v: %s: %w", ex.Position(), ex.Func, ErrUnboundedSensitivity)
	case s <= 0:
		return 1, nil
	}
	return int64(math.Ceil(s)), nil
}

// sensExpr bounds how much one participant's row can change the value of an
// expression (sensitivity propagation): constants are 0-sensitive, the
// database contributes its element width, sums of one-hot rows stay at the
// row width, addition adds, multiplication by a public constant scales, and
// clip caps at the clip width. A 0/1 value (a comparison, a logical
// operation) that a row can move at all moves by 1; a value that a row can
// move and no rule bounds is +Inf.
func (c *certifier) sensExpr(e lang.Expr) float64 {
	switch ex := e.(type) {
	case *lang.IntLit, *lang.FloatLit, *lang.BoolLit:
		return 0
	case *lang.Ident:
		return c.sens[ex.Name]
	case *lang.IndexExpr:
		if c.sensExpr(ex.Index) > 0 {
			return math.Inf(1) // a row picks the element
		}
		return c.sensExpr(ex.X)
	case *lang.UnaryExpr:
		if ex.Op == lang.NOT {
			return flips(c.sensExpr(ex.X))
		}
		return c.sensExpr(ex.X)
	case *lang.BinaryExpr:
		sx, sy := c.sensExpr(ex.X), c.sensExpr(ex.Y)
		switch ex.Op {
		case lang.ADD, lang.SUB:
			return sx + sy
		case lang.MUL:
			// Multiplication by a public value scales by its magnitude;
			// sensitive × sensitive is unbounded (conservative ∞).
			if sx == 0 {
				return sy * c.exprMagnitude(ex.X)
			}
			if sy == 0 {
				return sx * c.exprMagnitude(ex.Y)
			}
			return math.Inf(1)
		case lang.QUO:
			// Dividing by a public value at least 1 in magnitude cannot grow
			// sensitivity.
			if t, ok := c.info.TypeOf(ex.Y); ok && sy == 0 && (t.Range.Lo >= 1 || t.Range.Hi <= -1) {
				return sx
			}
			return unbounded(sx + sy)
		default: // comparisons and logical ops produce 0/1 values
			return flips(sx + sy)
		}
	case *lang.CallExpr:
		var s float64
		for _, a := range ex.Args {
			s += c.sensExpr(a)
		}
		switch ex.Func {
		case "sum":
			if isSumDB(ex) {
				// Column sums of per-participant rows: one row changes each
				// count by at most the element width.
				return c.info.DB.ElemRange.Width()
			}
			if id, ok := ex.Args[0].(*lang.Ident); ok && c.hist[id.Name] {
				return c.info.DB.ElemRange.Width() // a sum of distinct cells
			}
			if t, ok := c.info.TypeOf(ex.Args[0]); ok && t.Len > 0 {
				return s * float64(t.Len) // every element may move
			}
			return unbounded(s)
		case "clip":
			w := c.exprMagnitude(ex.Args[2]) - (-c.exprMagnitude(ex.Args[1]))
			if t, ok := c.info.TypeOf(ex); ok {
				w = t.Range.Width()
			}
			return math.Min(c.sensExpr(ex.Args[0]), w)
		case "max", "abs":
			return s // 1-Lipschitz
		case "argmax":
			// The index of the largest score jumps as far as the scores reach.
			if t, ok := c.info.TypeOf(ex); ok && s > 0 {
				return t.Range.Width()
			}
			return unbounded(s)
		case "laplace", "em", "gumbel", "topk", "declassify", "output", "len":
			return 0 // mechanism outputs are no longer sensitive; a length is public
		default: // exp, log2, sqrt: not Lipschitz
			return unbounded(s)
		}
	default:
		return math.Inf(1)
	}
}

// flips bounds a 0/1 value computed from something a row moves by s.
func flips(s float64) float64 { return math.Min(unbounded(s), 1) }

// unbounded bounds a value that no rule bounds, computed from something a row
// moves by s: 0 if the row cannot move it at all.
func unbounded(s float64) float64 {
	if s > 0 {
		return math.Inf(1)
	}
	return 0
}

// exprMagnitude returns a bound on |e| from the type-inference ranges.
func (c *certifier) exprMagnitude(e lang.Expr) float64 {
	if t, ok := c.info.TypeOf(e); ok {
		return math.Max(math.Abs(t.Range.Lo), math.Abs(t.Range.Hi))
	}
	return math.Inf(1)
}
