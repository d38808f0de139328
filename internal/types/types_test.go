package types

import (
	"math"
	"testing"
	"testing/quick"

	"arboretum/internal/lang"
)

var oneHotDB = DBInfo{N: 1 << 30, Width: 10, ElemRange: Range{0, 1}}

func infer(t *testing.T, src string, db DBInfo) *Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Infer(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestTop1Inference(t *testing.T) {
	info := infer(t, `
aggr = sum(db);
result = em(aggr);
output(result);
`, oneHotDB)
	aggr := info.Vars["aggr"]
	if !aggr.Array || aggr.Len != 10 {
		t.Fatalf("aggr = %v, want array of 10", aggr)
	}
	// Counts across 2^30 one-hot users: range [0, 2^30] — the paper's
	// plaintext modulus of 2^30 (Section 6).
	if aggr.Range.Hi != float64(1<<30) || aggr.Range.Lo != 0 {
		t.Fatalf("aggr range = %+v", aggr.Range)
	}
	res := info.Vars["result"]
	if res.Kind != Int || res.Array {
		t.Fatalf("result = %v", res)
	}
	if res.Range.Lo != 0 || res.Range.Hi != 9 {
		t.Fatalf("result range = %+v, want [0,9]", res.Range)
	}
}

func TestArithmeticRanges(t *testing.T) {
	info := infer(t, `
a = 3;
b = a + 4;
c = a * b;
d = a - 10;
`, oneHotDB)
	if r := info.Vars["b"].Range; r.Lo != 7 || r.Hi != 7 {
		t.Errorf("b range = %+v", r)
	}
	if r := info.Vars["c"].Range; r.Lo != 21 || r.Hi != 21 {
		t.Errorf("c range = %+v", r)
	}
	if r := info.Vars["d"].Range; r.Lo != -7 || r.Hi != -7 {
		t.Errorf("d range = %+v", r)
	}
}

func TestMulRangeCrossSigns(t *testing.T) {
	info := infer(t, `
x0 = 0; x1 = 0;
a = clip(x0, -2, 3);
b = clip(x1, -5, 7);
c = a * b;
`, oneHotDB)
	r := info.Vars["c"].Range
	// extrema of {10, -14, -15, 21}
	if r.Lo != -15 || r.Hi != 21 {
		t.Errorf("c range = %+v, want [-15, 21]", r)
	}
}

func TestFixPropagation(t *testing.T) {
	info := infer(t, `
a = 1;
b = 0.5;
c = a + b;
d = a / 2;
`, oneHotDB)
	if info.Vars["c"].Kind != Fix {
		t.Errorf("int + fix = %v, want fix", info.Vars["c"].Kind)
	}
	if info.Vars["d"].Kind != Fix {
		t.Errorf("division = %v, want fix", info.Vars["d"].Kind)
	}
}

func TestBoolChecks(t *testing.T) {
	info := infer(t, `
a = 1;
b = a > 0;
c = b && (a < 5);
`, oneHotDB)
	if info.Vars["b"].Kind != Bool || info.Vars["c"].Kind != Bool {
		t.Error("comparison/logical results should be bool")
	}
}

func TestLoopVariableAndAccumulator(t *testing.T) {
	info := infer(t, `
s = 0;
for i = 0 to 9 do
  s = s + 2;
endfor;
`, oneHotDB)
	iv := info.Vars["i"]
	if iv.Range.Lo != 0 || iv.Range.Hi != 9 {
		t.Errorf("loop var range = %+v", iv.Range)
	}
	s := info.Vars["s"]
	// Accumulator: at least 10 iterations × 2 must be covered.
	if s.Range.Hi < 20 {
		t.Errorf("accumulator upper bound %g < 20", s.Range.Hi)
	}
}

func TestIndexedAssignBuildsArray(t *testing.T) {
	info := infer(t, `
for i = 0 to 4 do
  es[i] = i * 2;
endfor;
`, oneHotDB)
	es := info.Vars["es"]
	if !es.Array {
		t.Fatalf("es = %v, want array", es)
	}
	if es.Len < 5 {
		t.Errorf("es len = %d, want >= 5", es.Len)
	}
	if es.Range.Hi < 8 {
		t.Errorf("es range = %+v", es.Range)
	}
}

func TestClipTightensRange(t *testing.T) {
	info := infer(t, `
a = sum(db);
b = clip(a[0], 0, 100);
`, oneHotDB)
	b := info.Vars["b"]
	if b.Range.Lo != 0 || b.Range.Hi != 100 {
		t.Errorf("clip range = %+v", b.Range)
	}
}

func TestDBIndexing(t *testing.T) {
	info := infer(t, `
x = db[3][2];
`, oneHotDB)
	x := info.Vars["x"]
	if x.Array || x.Range.Hi != 1 || x.Range.Lo != 0 {
		t.Errorf("db element = %v", x)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		`x = undefined_var;`,
		`x = 1; y = x[0];`,            // indexing non-array
		`x = true + 1;`,               // arithmetic on bool
		`x = 1 && 2;`,                 // logical on int
		`if 3 then x = 1; endif;`,     // non-bool condition
		`for i = 0.5 to 3 do endfor;`, // fractional loop bound
		`x = sum(5);`,                 // sum of scalar — parse ok, type error
		`x = !5;`,                     // not on int
		`x = -true;`,                  // negate bool
		`x = true < false;`,           // ordering on bool
		`x = len(5);`,                 // len of scalar
		`x = max(1);`,                 // max of scalar
	}
	for _, src := range bad {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Infer(prog, oneHotDB); err == nil {
			t.Errorf("Infer(%q) succeeded, want error", src)
		}
	}
}

func TestBoolEqualityAllowed(t *testing.T) {
	infer(t, `a = true; b = a == false;`, oneHotDB)
}

func TestTypeString(t *testing.T) {
	ty := Type{Kind: Int, Array: true, Len: 4, Range: Range{0, 3}}
	if ty.String() == "" || Kind(99).String() == "" {
		t.Error("String() should not be empty")
	}
}

func TestExprTypesRecorded(t *testing.T) {
	prog := lang.MustParse(`a = 1 + 2;`)
	info, err := Infer(prog, oneHotDB)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	lang.WalkExprs(prog.Stmts, func(e lang.Expr) {
		if _, ok := info.TypeOf(e); ok {
			found = true
		}
	})
	if !found {
		t.Error("no expression types recorded")
	}
}

func TestTopKType(t *testing.T) {
	info := infer(t, `
aggr = sum(db);
best = topk(aggr, 5);
`, oneHotDB)
	b := info.Vars["best"]
	if !b.Array || b.Len != 5 {
		t.Errorf("topk type = %v", b)
	}
}

func TestLaplaceWidensToFix(t *testing.T) {
	info := infer(t, `
aggr = sum(db);
noised = laplace(aggr[0], 0.1);
`, oneHotDB)
	n := info.Vars["noised"]
	if n.Kind != Fix {
		t.Errorf("laplace kind = %v, want fix", n.Kind)
	}
	if n.Range.Hi <= float64(1<<30) {
		t.Error("laplace should widen the range for noise tails")
	}
}

// Property: Union covers both inputs and is commutative/idempotent.
func TestQuickRangeUnion(t *testing.T) {
	f := func(a, b, c, d int16) bool {
		r1 := Range{Lo: math.Min(float64(a), float64(b)), Hi: math.Max(float64(a), float64(b))}
		r2 := Range{Lo: math.Min(float64(c), float64(d)), Hi: math.Max(float64(c), float64(d))}
		u := r1.Union(r2)
		if u != r2.Union(r1) || u != u.Union(u) {
			return false
		}
		return u.Lo <= r1.Lo && u.Lo <= r2.Lo && u.Hi >= r1.Hi && u.Hi >= r2.Hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivisionRanges(t *testing.T) {
	// Division by a positive-range value yields a finite range.
	info := infer(t, `
x = clip(0, 10, 20);
y = x / 2;
`, oneHotDB)
	y := info.Vars["y"]
	if y.Kind != Fix {
		t.Errorf("division kind = %v", y.Kind)
	}
	if y.Range.Lo < 4.9 || y.Range.Hi > 10.1 {
		t.Errorf("division range = %+v, want ~[5,10]", y.Range)
	}
	// Division by a range containing zero is conservative.
	info = infer(t, `
a = clip(0, 0 - 5, 5);
b = 10 / a;
`, oneHotDB)
	b := info.Vars["b"]
	if b.Range.Hi < 1e300 {
		t.Errorf("division by zero-spanning range should widen: %+v", b.Range)
	}
}

func TestMulAccumulatorWidens(t *testing.T) {
	// A multiplicative accumulator must widen past its single-pass value.
	info := infer(t, `
p = 2;
for i = 0 to 4 do
  p = p * 2;
endfor;
`, oneHotDB)
	p := info.Vars["p"]
	if p.Range.Hi < 16 {
		t.Errorf("multiplicative accumulator upper = %g, want ≥ 16", p.Range.Hi)
	}
}

// TestLoopIters: a loop's trip count is hi(to) − lo(from) + 1 from the
// inferred ranges, at least 1, and saturates at math.MaxInt64 once the span
// reaches 2^62 — the one count privacy charges and the planner prices.
func TestLoopIters(t *testing.T) {
	for _, tc := range []struct {
		name, bounds string
		want         int64
	}{
		{"ordinary", "0 to 9", 10},
		{"data-dependent", "0 to aggr[0]", 101},
		{"reversed", "9 to 0", 1},
		{"reversed past int64", "9000000000000000000 * 2 to 0", 1},
		{"span 2^62", "0 to 4611686018427387904", math.MaxInt64},
		{"span past int64", "0 to 9000000000000000000 * 2", math.MaxInt64},
	} {
		src := "aggr = sum(db);\nfor i = " + tc.bounds + " do\n  x = i;\nendfor;\noutput(x);"
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := Infer(prog, DBInfo{N: 100, Width: 4, ElemRange: Range{Hi: 1}})
		if err != nil {
			t.Fatal(err)
		}
		loop := prog.Stmts[1].(*lang.ForStmt)
		if got := info.LoopIters(loop); got != tc.want {
			t.Errorf("%s: LoopIters = %d, want %d", tc.name, got, tc.want)
		}
		// Bounds inference never saw: the loop counts once.
		if got := (&Info{Exprs: map[lang.Expr]Type{}}).LoopIters(loop); got != 1 {
			t.Errorf("%s: LoopIters without inferred bounds = %d, want 1", tc.name, got)
		}
	}
}
