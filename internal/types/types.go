// Package types implements Arboretum's basic type inference (Section 4.4):
// every variable and expression gets a basic type (int, fix, or bool) and a
// conservative value range. The range matters downstream: the planner uses
// it to pick cryptosystem parameters (e.g. a plaintext modulus large enough
// to sum binary values across a billion users), and the analyst can tighten
// ranges with clip.
package types

import (
	"fmt"
	"math"

	"arboretum/internal/lang"
)

// Kind is a basic type.
type Kind int

// Basic types of Section 4.4.
const (
	Int Kind = iota
	Fix
	Bool
)

func (k Kind) String() string {
	switch k {
	case Int:
		return "int"
	case Fix:
		return "fix"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Range is a conservative closed interval.
type Range struct {
	Lo, Hi float64
}

// Union returns the smallest interval covering both.
func (r Range) Union(o Range) Range {
	return Range{Lo: math.Min(r.Lo, o.Lo), Hi: math.Max(r.Hi, o.Hi)}
}

// Width returns Hi − Lo.
func (r Range) Width() float64 { return r.Hi - r.Lo }

func add(a, b Range) Range { return Range{a.Lo + b.Lo, a.Hi + b.Hi} }
func sub(a, b Range) Range { return Range{a.Lo - b.Hi, a.Hi - b.Lo} }
func mulR(a, b Range) Range {
	// The lower and upper bounds for a*b are simply the extrema of the
	// endpoint products (Section 4.4's example).
	c := []float64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return Range{lo, hi}
}

// Type is an inferred type: a basic kind, array-ness with optional static
// length, and a value range for the (element) values.
type Type struct {
	Kind  Kind
	Array bool
	Len   int64 // static array length, 0 if unknown
	Range Range
}

func (t Type) String() string {
	if t.Array {
		return fmt.Sprintf("%v[%d] in [%g, %g]", t.Kind, t.Len, t.Range.Lo, t.Range.Hi)
	}
	return fmt.Sprintf("%v in [%g, %g]", t.Kind, t.Range.Lo, t.Range.Hi)
}

// DBInfo describes the input database: N participants each contributing a
// Width-vector of values in ElemRange (one-hot categorical inputs use
// [0, 1]).
type DBInfo struct {
	N         int64
	Width     int64
	ElemRange Range
}

// Info is the inference result.
type Info struct {
	Vars  map[string]Type
	Exprs map[lang.Expr]Type
	DB    DBInfo
}

// TypeOf returns the inferred type of an expression.
func (in *Info) TypeOf(e lang.Expr) (Type, bool) {
	t, ok := in.Exprs[e]
	return t, ok
}

// LoopIters returns how many times st's body runs, from the inferred ranges
// of its bounds: hi(to) − lo(from) + 1, and at least 1. A span of 2^62 or
// more (or a NaN one) saturates at math.MaxInt64, so a caller that
// multiplies trip counts must saturate or refuse too; the float span is
// converted to int64 only inside [0, 2^62), where the conversion is defined.
// A loop whose bounds were never inferred counts once.
func (in *Info) LoopIters(st *lang.ForStmt) int64 {
	from, okF := in.TypeOf(st.From)
	to, okT := in.TypeOf(st.To)
	if !okF || !okT {
		return 1
	}
	switch span := to.Range.Hi - from.Range.Lo; {
	case !(span < 1<<62):
		return math.MaxInt64
	case span < 0:
		return 1
	default:
		return int64(span) + 1
	}
}

// Infer runs type and range inference over the program. It returns an error
// for programs that use undefined variables, mix kinds incompatibly, or
// index non-arrays.
func Infer(p *lang.Program, db DBInfo) (*Info, error) {
	inf := &inferencer{
		info: &Info{Vars: map[string]Type{}, Exprs: map[lang.Expr]Type{}, DB: db},
	}
	inf.info.Vars["db"] = Type{Kind: Int, Array: true, Len: db.N, Range: db.ElemRange}
	if err := inf.stmts(p.Stmts); err != nil {
		return nil, err
	}
	return inf.info, nil
}

type inferencer struct {
	info *Info
}

func (in *inferencer) stmts(ss []lang.Stmt) error {
	for _, s := range ss {
		if err := in.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (in *inferencer) stmt(s lang.Stmt) error {
	switch st := s.(type) {
	case *lang.AssignStmt:
		vt, err := in.expr(st.Value)
		if err != nil {
			return err
		}
		if st.Index != nil {
			it, err := in.expr(st.Index)
			if err != nil {
				return err
			}
			if it.Kind != Int {
				return fmt.Errorf("%v: array index must be int, got %v", s.Position(), it.Kind)
			}
			cur, ok := in.info.Vars[st.Name]
			elem := vt
			ln := int64(it.Range.Hi) + 1
			if ok {
				if !cur.Array {
					return fmt.Errorf("%v: %s indexed but previously scalar", s.Position(), st.Name)
				}
				elem.Range = elem.Range.Union(cur.Range)
				if cur.Kind == Fix || vt.Kind == Fix {
					elem.Kind = Fix
				}
				if cur.Len > ln {
					ln = cur.Len
				}
			}
			in.info.Vars[st.Name] = Type{Kind: elem.Kind, Array: true, Len: ln, Range: elem.Range}
			return nil
		}
		if cur, ok := in.info.Vars[st.Name]; ok {
			// Re-assignment widens the range, keeping the broader kind.
			vt.Range = vt.Range.Union(cur.Range)
			if cur.Kind == Fix || vt.Kind == Fix {
				vt.Kind = Fix
			}
		}
		in.info.Vars[st.Name] = vt
		return nil
	case *lang.ExprStmt:
		_, err := in.expr(st.X)
		return err
	case *lang.ForStmt:
		from, err := in.expr(st.From)
		if err != nil {
			return err
		}
		to, err := in.expr(st.To)
		if err != nil {
			return err
		}
		if from.Kind != Int || to.Kind != Int {
			return fmt.Errorf("%v: loop bounds must be int", s.Position())
		}
		in.info.Vars[st.Var] = Type{Kind: Int, Range: Range{from.Range.Lo, to.Range.Hi}}
		iters := to.Range.Hi - from.Range.Lo + 1
		if iters < 1 {
			iters = 1
		}
		// Accumulator widening: running the body twice detects variables
		// whose range grows per iteration; their growth is then scaled by
		// the iteration count (conservative, Section 4.4).
		before := snapshot(in.info.Vars)
		var afterOnce map[string]Type
		for {
			if err := in.stmts(st.Body); err != nil {
				return err
			}
			afterOnce = snapshot(in.info.Vars)
			if err := in.stmts(st.Body); err != nil {
				return err
			}
			// A variable the second pass still made Fix can carry Fix on
			// to another on a third (a chain of copies carries it one
			// variable per pass), so the passes start over from before
			// with it Fix. Only variables defined before the loop carry a
			// value from one iteration to the next (the body cannot read
			// another before writing it), and each start over makes one
			// more of them Fix for good, so this ends after at most
			// len(before) of them. Other kind changes (a Bool and an Int
			// swapped through a temporary) never start over.
			if !widenToFix(before, afterOnce, in.info.Vars) {
				break
			}
			in.info.Vars = snapshot(before)
		}
		for name, t2 := range in.info.Vars {
			t1, ok1 := afterOnce[name]
			t0, ok0 := before[name]
			if !ok1 {
				continue
			}
			growLo := t1.Range.Lo - t2.Range.Lo // second pass grew downward by this
			growHi := t2.Range.Hi - t1.Range.Hi
			if growLo > 0 || growHi > 0 {
				base := t1.Range
				if ok0 {
					base = t0.Range.Union(t1.Range)
				}
				t2.Range = Range{
					Lo: base.Lo - growLo*iters,
					Hi: base.Hi + growHi*iters,
				}
				in.info.Vars[name] = t2
			}
		}
		return nil
	case *lang.IfStmt:
		ct, err := in.expr(st.Cond)
		if err != nil {
			return err
		}
		if ct.Kind != Bool {
			return fmt.Errorf("%v: if condition must be bool, got %v", s.Position(), ct.Kind)
		}
		if err := in.stmts(st.Then); err != nil {
			return err
		}
		return in.stmts(st.Else)
	default:
		return fmt.Errorf("%v: unknown statement %T", s.Position(), s)
	}
}

// widenToFix makes Fix in before every variable that is Fix in now but
// neither in after nor already in before, and reports whether there was one.
func widenToFix(before, after, now map[string]Type) bool {
	widened := false
	for name, t := range before {
		if t.Kind != Fix && after[name].Kind != Fix && now[name].Kind == Fix {
			t.Kind = Fix
			before[name] = t
			widened = true
		}
	}
	return widened
}

func snapshot(m map[string]Type) map[string]Type {
	out := make(map[string]Type, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (in *inferencer) expr(e lang.Expr) (Type, error) {
	t, err := in.exprUncached(e)
	if err != nil {
		return Type{}, err
	}
	in.info.Exprs[e] = t
	return t, nil
}

func (in *inferencer) exprUncached(e lang.Expr) (Type, error) {
	switch ex := e.(type) {
	case *lang.IntLit:
		return Type{Kind: Int, Range: Range{float64(ex.Value), float64(ex.Value)}}, nil
	case *lang.FloatLit:
		return Type{Kind: Fix, Range: Range{ex.Value, ex.Value}}, nil
	case *lang.BoolLit:
		return Type{Kind: Bool, Range: Range{0, 1}}, nil
	case *lang.Ident:
		t, ok := in.info.Vars[ex.Name]
		if !ok {
			return Type{}, fmt.Errorf("%v: undefined variable %q", ex.Position(), ex.Name)
		}
		return t, nil
	case *lang.IndexExpr:
		xt, err := in.expr(ex.X)
		if err != nil {
			return Type{}, err
		}
		it, err := in.expr(ex.Index)
		if err != nil {
			return Type{}, err
		}
		if it.Kind != Int {
			return Type{}, fmt.Errorf("%v: array index must be int", ex.Position())
		}
		if !xt.Array {
			return Type{}, fmt.Errorf("%v: indexing a non-array", ex.Position())
		}
		// db[i] is participant i's row: a Width-array of elements.
		if id, ok := ex.X.(*lang.Ident); ok && id.Name == "db" {
			return Type{Kind: Int, Array: true, Len: in.info.DB.Width, Range: in.info.DB.ElemRange}, nil
		}
		return Type{Kind: xt.Kind, Range: xt.Range}, nil
	case *lang.UnaryExpr:
		xt, err := in.expr(ex.X)
		if err != nil {
			return Type{}, err
		}
		switch ex.Op {
		case lang.NOT:
			if xt.Kind != Bool {
				return Type{}, fmt.Errorf("%v: ! requires bool", ex.Position())
			}
			return Type{Kind: Bool, Range: Range{0, 1}}, nil
		case lang.SUB:
			if xt.Kind == Bool {
				return Type{}, fmt.Errorf("%v: cannot negate bool", ex.Position())
			}
			return Type{Kind: xt.Kind, Range: Range{-xt.Range.Hi, -xt.Range.Lo}}, nil
		}
		return Type{}, fmt.Errorf("%v: unknown unary op %v", ex.Position(), ex.Op)
	case *lang.BinaryExpr:
		return in.binary(ex)
	case *lang.CallExpr:
		return in.call(ex)
	default:
		return Type{}, fmt.Errorf("unknown expression %T", e)
	}
}

func (in *inferencer) binary(ex *lang.BinaryExpr) (Type, error) {
	xt, err := in.expr(ex.X)
	if err != nil {
		return Type{}, err
	}
	yt, err := in.expr(ex.Y)
	if err != nil {
		return Type{}, err
	}
	numKind := func() Kind {
		if xt.Kind == Fix || yt.Kind == Fix {
			return Fix
		}
		return Int
	}
	switch ex.Op {
	case lang.ADD, lang.SUB, lang.MUL, lang.QUO:
		if xt.Kind == Bool || yt.Kind == Bool {
			return Type{}, fmt.Errorf("%v: arithmetic on bool", ex.Position())
		}
		var r Range
		switch ex.Op {
		case lang.ADD:
			r = add(xt.Range, yt.Range)
		case lang.SUB:
			r = sub(xt.Range, yt.Range)
		case lang.MUL:
			r = mulR(xt.Range, yt.Range)
		case lang.QUO:
			// Division range: conservative unless the divisor excludes 0.
			if yt.Range.Lo > 0 {
				r = Range{
					Lo: math.Min(xt.Range.Lo/yt.Range.Lo, xt.Range.Lo/yt.Range.Hi),
					Hi: math.Max(xt.Range.Hi/yt.Range.Lo, xt.Range.Hi/yt.Range.Hi),
				}
			} else {
				r = Range{-math.MaxFloat64, math.MaxFloat64}
			}
			return Type{Kind: Fix, Range: r}, nil
		}
		return Type{Kind: numKind(), Range: r}, nil
	case lang.LSS, lang.LEQ, lang.GTR, lang.GEQ, lang.EQL, lang.NEQ:
		if xt.Kind == Bool && ex.Op != lang.EQL && ex.Op != lang.NEQ {
			return Type{}, fmt.Errorf("%v: ordering on bool", ex.Position())
		}
		return Type{Kind: Bool, Range: Range{0, 1}}, nil
	case lang.LAND, lang.LOR:
		if xt.Kind != Bool || yt.Kind != Bool {
			return Type{}, fmt.Errorf("%v: logical op requires bool operands", ex.Position())
		}
		return Type{Kind: Bool, Range: Range{0, 1}}, nil
	}
	return Type{}, fmt.Errorf("%v: unknown binary op %v", ex.Position(), ex.Op)
}

func (in *inferencer) call(ex *lang.CallExpr) (Type, error) {
	args := make([]Type, len(ex.Args))
	for i, a := range ex.Args {
		t, err := in.expr(a)
		if err != nil {
			return Type{}, err
		}
		args[i] = t
	}
	argIsDB := func(i int) bool {
		id, ok := ex.Args[i].(*lang.Ident)
		return ok && id.Name == "db"
	}
	switch ex.Func {
	case "sum":
		if !args[0].Array {
			return Type{}, fmt.Errorf("%v: sum requires an array", ex.Position())
		}
		if argIsDB(0) {
			// Column sums over the database: a Width-vector of counts in
			// [N·lo, N·hi] — e.g. the plaintext modulus of 2^30, "enough to
			// sum binary values across one billion users" (Section 6).
			n := float64(in.info.DB.N)
			return Type{
				Kind: Int, Array: true, Len: in.info.DB.Width,
				Range: Range{n * in.info.DB.ElemRange.Lo, n * in.info.DB.ElemRange.Hi},
			}, nil
		}
		n := float64(args[0].Len)
		if n < 1 {
			n = 1
		}
		return Type{Kind: args[0].Kind, Range: Range{n * math.Min(args[0].Range.Lo, 0), n * math.Max(args[0].Range.Hi, 0)}}, nil
	case "max":
		if !args[0].Array {
			return Type{}, fmt.Errorf("%v: max requires an array", ex.Position())
		}
		return Type{Kind: args[0].Kind, Range: args[0].Range}, nil
	case "argmax":
		if !args[0].Array {
			return Type{}, fmt.Errorf("%v: argmax requires an array", ex.Position())
		}
		return Type{Kind: Int, Range: Range{0, float64(max64(args[0].Len-1, 0))}}, nil
	case "em":
		if !args[0].Array {
			return Type{}, fmt.Errorf("%v: em requires a score array", ex.Position())
		}
		return Type{Kind: Int, Range: Range{0, float64(max64(args[0].Len-1, 0))}}, nil
	case "topk":
		if !args[0].Array {
			return Type{}, fmt.Errorf("%v: topk requires a score array", ex.Position())
		}
		k := int64(args[1].Range.Hi)
		return Type{Kind: Int, Array: true, Len: k, Range: Range{0, float64(max64(args[0].Len-1, 0))}}, nil
	case "laplace", "gumbel":
		// Noised value: the range widens by the clipped noise tails
		// (Section 6: tails are cut to the representable range, adding δ).
		r := args[0].Range
		const tail = 1 << 20
		return Type{Kind: Fix, Range: Range{r.Lo - tail, r.Hi + tail}}, nil
	case "exp":
		return Type{Kind: Fix, Range: Range{0, math.MaxFloat64}}, nil
	case "log2":
		return Type{Kind: Fix, Range: Range{-64, 64}}, nil
	case "sqrt":
		return Type{Kind: Fix, Range: Range{0, math.Sqrt(math.Max(args[0].Range.Hi, 0))}}, nil
	case "abs":
		hi := math.Max(math.Abs(args[0].Range.Lo), math.Abs(args[0].Range.Hi))
		return Type{Kind: args[0].Kind, Range: Range{0, hi}}, nil
	case "clip":
		// A fractional bound can be the result, so it makes the result Fix:
		// an Int value is always a whole number.
		lo, hi := args[1].Range.Lo, args[2].Range.Hi
		kind := args[0].Kind
		if args[1].Kind == Fix || args[2].Kind == Fix {
			kind = Fix
		}
		return Type{Kind: kind, Range: Range{lo, hi}}, nil
	case "sampleUniform":
		return Type{Kind: Fix, Range: Range{0, args[0].Range.Hi}}, nil
	case "len":
		if !args[0].Array {
			return Type{}, fmt.Errorf("%v: len requires an array", ex.Position())
		}
		return Type{Kind: Int, Range: Range{float64(args[0].Len), float64(args[0].Len)}}, nil
	case "output":
		return args[0], nil
	case "declassify":
		return args[0], nil
	case "array":
		n := int64(args[0].Range.Hi)
		return Type{Kind: Int, Array: true, Len: n, Range: Range{0, 0}}, nil
	default:
		return Type{}, fmt.Errorf("%v: unknown function %q", ex.Position(), ex.Func)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
