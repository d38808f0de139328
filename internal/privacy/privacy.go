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
//   - sensitivity bounds from the database row shape and clip ranges.
//
// Programs that try to output raw tainted data, or declassify values that
// never passed through a mechanism, are rejected.
package privacy

import (
	"errors"
	"fmt"
	"math"

	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
	"arboretum/internal/types"
)

// defaultEpsilon is the ε of a mechanism call without a literal ε argument
// (the evaluation setup).
const defaultEpsilon = 0.1

// MechanismUse records one mechanism call site found in the query. It is the
// one reading of the call's ε and of the bound on topk's k: the certificate
// is charged from it, and the runtime executes the call at Pos with
// CallEpsilon and releases at most K winners, so what runs is within what was
// charged.
type MechanismUse struct {
	Func        string   // laplace | em | topk
	Pos         lang.Pos // the call site
	CallEpsilon float64  // the ε the mechanism runs at: the call's argument, or the default
	K           int64    // topk: the winner count charged for (k's inferred upper bound); 0 otherwise
	Epsilon     float64  // per-invocation ε charged: CallEpsilon, or K·CallEpsilon for topk's K rounds
	Invocations int64    // static count (loops multiply)
	Sensitivity int64
}

// Certificate is the result of a successful certification.
type Certificate struct {
	Epsilon     float64 // total ε under sequential composition
	Delta       float64 // δ from finite-precision tail clipping (Section 6)
	Sensitivity int64   // worst-case per-row influence on any aggregate
	SampleRate  float64 // secrecy-of-the-sample rate, 1 if unsampled
	Mechanisms  []MechanismUse
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

// ErrUnboundedSensitivity is the refusal of a laplace argument that one row
// can move without limit: no finite noise scale covers it. The error names
// the call site and wraps this sentinel, so callers (the gateway's
// not_private refusal among them) can test for it with errors.Is.
var ErrUnboundedSensitivity = errors.New("laplace of an argument with unbounded sensitivity (one row can move it without limit)")

// Certify checks the program and returns its privacy certificate. The types
// result supplies loop extents and clip ranges.
func Certify(p *lang.Program, info *types.Info) (*Certificate, error) {
	c := &certifier{
		info: info,
		vars: map[string]taint{"db": sensitive},
		sens: map[string]float64{"db": info.DB.ElemRange.Width()},
		cert: &Certificate{SampleRate: 1},
	}
	if err := c.stmts(p.Stmts, 1, public); err != nil {
		return nil, err
	}
	if !c.sawOutput {
		return nil, fmt.Errorf("privacy: query never calls output")
	}
	// Sensitivity: the worst mechanism-level sensitivity seen; for the
	// one-hot database encoding every row changes each count by at most 1.
	c.cert.Sensitivity = c.maxSensitivity
	if c.cert.Sensitivity == 0 {
		c.cert.Sensitivity = 1
	}
	// Amplification by sampling applies to the whole ε (Section 2.1).
	if c.cert.SampleRate < 1 {
		amp, err := mechanism.AmplifyBySampling(c.cert.Epsilon, c.cert.SampleRate)
		if err != nil {
			return nil, fmt.Errorf("privacy: %v", err)
		}
		c.cert.Epsilon = amp
	}
	return c.cert, nil
}

type certifier struct {
	info           *types.Info
	vars           map[string]taint
	sens           map[string]float64 // per-variable sensitivity bound
	cert           *Certificate
	sawOutput      bool
	sampledAt      lang.Pos // the query's one sampleUniform call, once seen
	maxSensitivity int64
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
		if st.Index != nil {
			it, err := c.expr(st.Index, mult)
			if err != nil {
				return err
			}
			t = t.join(it)
		}
		t = t.join(ctx) // implicit flow from the enclosing condition
		if st.Index != nil {
			// Element assignment joins into the whole array's taint.
			t = t.join(c.vars[st.Name])
		}
		c.vars[st.Name] = t
		s := c.sensExpr(st.Value)
		if st.Index != nil && c.sens[st.Name] > s {
			s = c.sens[st.Name]
		}
		c.sens[st.Name] = s
		return nil
	case *lang.ExprStmt:
		_, err := c.expr(st.X, mult)
		return err
	case *lang.ForStmt:
		iters := c.loopIterations(st)
		if iters > math.MaxInt64/mult {
			// The multiplier would wrap — to a small or negative count, and
			// with it the certified ε.
			return fmt.Errorf("%v: loop nest repeats its body more than 2^63 times", st.Position())
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
		c.vars[st.Var] = bounds
		return c.stmts(st.Body, mult*iters, ctx.join(bounds))
	case *lang.IfStmt:
		condT, err := c.expr(st.Cond, mult)
		if err != nil {
			return err
		}
		inner := ctx.join(condT)
		if err := c.stmts(st.Then, mult, inner); err != nil {
			return err
		}
		return c.stmts(st.Else, mult, inner)
	default:
		return fmt.Errorf("privacy: unknown statement %T", s)
	}
}

func (c *certifier) loopIterations(st *lang.ForStmt) int64 {
	from, okF := c.info.TypeOf(st.From)
	to, okT := c.info.TypeOf(st.To)
	if !okF || !okT {
		return 1
	}
	span := to.Range.Hi - from.Range.Lo
	if !(span < 1<<62) {
		return math.MaxInt64 // past what int64(span) can hold (or NaN)
	}
	iters := int64(span) + 1
	if iters < 1 {
		return 1
	}
	return iters
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
	case "laplace":
		eps, err := c.epsArg(ex, 1)
		if err != nil {
			return sensitive, err
		}
		sens, err := c.laplaceSensitivity(ex)
		if err != nil {
			return sensitive, err
		}
		c.record(MechanismUse{
			Func: "laplace", Pos: ex.Position(), CallEpsilon: eps, Epsilon: eps,
			Invocations: mult, Sensitivity: sens,
		})
		return noised, nil
	case "em":
		eps, err := c.epsArg(ex, 1)
		if err != nil {
			return sensitive, err
		}
		c.record(MechanismUse{
			Func: "em", Pos: ex.Position(), CallEpsilon: eps, Epsilon: eps,
			Invocations: mult, Sensitivity: 1,
		})
		return noised, nil
	case "topk":
		eps, err := c.epsArg(ex, 2)
		if err != nil {
			return sensitive, err
		}
		k, err := c.topkCount(ex)
		if err != nil {
			return sensitive, err
		}
		// The runtime peels k Gumbel-argmax rounds, each at the call's ε:
		// k pure-ε mechanisms, which compose to k·ε.
		c.record(MechanismUse{
			Func: "topk", Pos: ex.Position(), CallEpsilon: eps, K: k, Epsilon: eps * float64(k),
			Invocations: mult, Sensitivity: 1,
		})
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
		rate := c.floatArgValue(ex, 0, 1)
		if rate > 0 && rate < 1 {
			c.cert.SampleRate = rate
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

// record accumulates one mechanism use under sequential composition. Each
// mechanism run clips its own tails, so a topk invocation adds K δ terms.
func (c *certifier) record(m MechanismUse) {
	runs := float64(m.Invocations)
	if m.K > 0 {
		runs *= float64(m.K)
	}
	c.cert.Mechanisms = append(c.cert.Mechanisms, m)
	c.cert.Epsilon += m.Epsilon * float64(m.Invocations)
	c.cert.Delta += deltaPerMechanism * runs
	if m.Sensitivity > c.maxSensitivity {
		c.maxSensitivity = m.Sensitivity
	}
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
// not at a default.
func (c *certifier) topkCount(ex *lang.CallExpr) (int64, error) {
	t, ok := c.info.TypeOf(ex.Args[1])
	if !ok || !(t.Range.Hi >= 1 && t.Range.Hi < 1<<31) {
		return 0, fmt.Errorf("%v: topk needs a count k ≥ 1 with a known bound", ex.Position())
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

// laplaceSensitivity derives the sensitivity of a Laplace invocation from
// the tracked per-row influence of its argument (Fuzzi's sensitivity
// analysis). An argument no row can move is charged at 1, the unclipped
// one-hot default. An unbounded one, such as a product of two sensitive
// values, is refused with ErrUnboundedSensitivity.
func (c *certifier) laplaceSensitivity(ex *lang.CallExpr) (int64, error) {
	s := c.sensExpr(ex.Args[0])
	switch {
	case math.IsInf(s, 1) || math.IsNaN(s):
		return 0, fmt.Errorf("%v: %w", ex.Position(), ErrUnboundedSensitivity)
	case s <= 0:
		return 1, nil
	}
	return int64(math.Ceil(s)), nil
}

// sensExpr bounds how much one participant's row can change the value of an
// expression (sensitivity propagation): constants are 0-sensitive, the
// database contributes its element width, sums of one-hot rows stay at the
// row width, addition adds, multiplication by a public constant scales, and
// clip caps at the clip width.
func (c *certifier) sensExpr(e lang.Expr) float64 {
	switch ex := e.(type) {
	case *lang.IntLit, *lang.FloatLit, *lang.BoolLit:
		return 0
	case *lang.Ident:
		return c.sens[ex.Name]
	case *lang.IndexExpr:
		return c.sensExpr(ex.X)
	case *lang.UnaryExpr:
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
			if sy == 0 {
				d := c.exprMagnitude(ex.Y)
				if d >= 1 {
					return sx // dividing by ≥1 cannot grow sensitivity
				}
			}
			return math.Inf(1)
		default: // comparisons and logical ops produce 0/1 values
			return sx + sy
		}
	case *lang.CallExpr:
		switch ex.Func {
		case "sum":
			if id, ok := ex.Args[0].(*lang.Ident); ok && id.Name == "db" {
				// Column sums of per-participant rows: one row changes each
				// count by at most the element width.
				return c.info.DB.ElemRange.Width()
			}
			return c.sensExpr(ex.Args[0]) // element-wise accumulation bound
		case "clip":
			w := c.exprMagnitude(ex.Args[2]) - (-c.exprMagnitude(ex.Args[1]))
			if t, ok := c.info.TypeOf(ex); ok {
				w = t.Range.Width()
			}
			s := c.sensExpr(ex.Args[0])
			return math.Min(s, w)
		case "max", "argmax", "em", "abs", "len":
			return c.sensExpr(ex.Args[0])
		case "laplace", "gumbel", "topk", "declassify", "output":
			return 0 // mechanism outputs are no longer sensitive
		default:
			var s float64
			for _, a := range ex.Args {
				s += c.sensExpr(a)
			}
			return s
		}
	default:
		return math.Inf(1)
	}
}

// exprMagnitude returns a bound on |e| from the type-inference ranges.
func (c *certifier) exprMagnitude(e lang.Expr) float64 {
	if t, ok := c.info.TypeOf(e); ok {
		return math.Max(math.Abs(t.Range.Lo), math.Abs(t.Range.Hi))
	}
	return math.Inf(1)
}
