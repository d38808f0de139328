package privacy

import (
	"errors"
	"math"
	"strings"
	"testing"

	"arboretum/internal/lang"
	"arboretum/internal/types"
)

var db = types.DBInfo{N: 1 << 20, Width: 8, ElemRange: types.Range{Lo: 0, Hi: 1}}

func certify(t *testing.T, src string) (*Certificate, error) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Infer(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	return Certify(prog, info)
}

func mustCertify(t *testing.T, src string) *Certificate {
	t.Helper()
	c, err := certify(t, src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTop1Certifies(t *testing.T) {
	c := mustCertify(t, `
aggr = sum(db);
result = em(aggr);
output(result);
`)
	if c.Epsilon != defaultEpsilon {
		t.Errorf("ε = %g, want %g", c.Epsilon, defaultEpsilon)
	}
	if c.Sensitivity != 1 {
		t.Errorf("sensitivity = %d, want 1", c.Sensitivity)
	}
	if len(c.Mechanisms) != 1 || c.Mechanisms[0].Func != "em" {
		t.Errorf("mechanisms = %+v", c.Mechanisms)
	}
	if c.Delta <= 0 {
		t.Error("finite-precision δ should be positive")
	}
}

func TestExplicitEpsilon(t *testing.T) {
	c := mustCertify(t, `
aggr = sum(db);
result = em(aggr, 0.5);
output(result);
`)
	if c.Epsilon != 0.5 {
		t.Errorf("ε = %g, want 0.5", c.Epsilon)
	}
}

func TestRawOutputRejected(t *testing.T) {
	if _, err := certify(t, `
aggr = sum(db);
output(aggr);
`); err == nil {
		t.Fatal("raw aggregate output certified")
	}
	if _, err := certify(t, `
output(db[0][0]);
`); err == nil {
		t.Fatal("raw db output certified")
	}
}

func TestDeclassifyOfSensitiveRejected(t *testing.T) {
	if _, err := certify(t, `
aggr = sum(db);
x = declassify(aggr);
output(x);
`); err == nil {
		t.Fatal("declassify of unmechanized value certified")
	}
}

func TestDeclassifyOfNoisedAccepted(t *testing.T) {
	c := mustCertify(t, `
aggr = sum(db);
n = laplace(aggr[0], 0.1);
x = declassify(n);
output(x);
`)
	if len(c.Mechanisms) != 1 || c.Mechanisms[0].Func != "laplace" {
		t.Errorf("mechanisms = %+v", c.Mechanisms)
	}
}

// Implicit flows (the Figure 4 exponentiation variant): a loop index chosen
// by comparing against a noised threshold is itself noised, so declassify is
// allowed; a loop index chosen by comparing raw data is not.
func TestImplicitFlowThroughNoised(t *testing.T) {
	mustCertify(t, `
aggr = sum(db);
r = laplace(aggr[0], 0.1);
result = 0;
for i = 0 to 7 do
  if r >= i then
    result = declassify(i);
  endif;
endfor;
output(result);
`)
}

func TestImplicitFlowFromRawRejected(t *testing.T) {
	if _, err := certify(t, `
aggr = sum(db);
result = 0;
for i = 0 to 7 do
  if aggr[i] >= 100 then
    result = i;
  endif;
endfor;
output(result);
`); err == nil {
		t.Fatal("implicit flow from raw data certified")
	}
}

func TestLoopMultipliesEpsilon(t *testing.T) {
	c := mustCertify(t, `
aggr = sum(db);
total = 0;
for i = 0 to 4 do
  n = laplace(aggr[i], 0.1);
  total = total + declassify(n);
endfor;
output(total);
`)
	want := 0.5 // 5 iterations × 0.1
	if math.Abs(c.Epsilon-want) > 1e-9 {
		t.Errorf("ε = %g, want %g", c.Epsilon, want)
	}
}

func TestTopKComposition(t *testing.T) {
	c := mustCertify(t, `
aggr = sum(db);
best = topk(aggr, 4, 0.1);
output(declassify(best[0]));
`)
	// Four peeled rounds at 0.1 each: 4 × 0.1 = 0.4, and a tail δ per round.
	if math.Abs(c.Epsilon-0.4) > 1e-9 {
		t.Errorf("topk ε = %g, want 0.4", c.Epsilon)
	}
	if c.Delta != 4*deltaPerMechanism {
		t.Errorf("topk δ = %g, want 4·2⁻⁴⁰", c.Delta)
	}
}

func TestSamplingAmplification(t *testing.T) {
	c := mustCertify(t, `
sampled = sampleUniform(0.01);
aggr = sum(db);
n = laplace(aggr[0], 1.0);
output(declassify(n));
`)
	if c.SampleRate != 0.01 {
		t.Errorf("sample rate = %g", c.SampleRate)
	}
	want := math.Log1p(0.01 * math.Expm1(1.0))
	if math.Abs(c.Epsilon-want) > 1e-9 {
		t.Errorf("amplified ε = %g, want %g", c.Epsilon, want)
	}
}

// One query, one sample: a second sampleUniform call is refused whatever its
// rate, and the refusal names both call sites.
func TestSecondSampleUniformRejected(t *testing.T) {
	const tail = "aggr = sum(db);\nn = laplace(aggr[0], 1.0);\noutput(declassify(n));"
	for _, second := range []string{"1", "0.5", "0.25"} {
		_, err := certify(t, "sampleUniform(0.5); sampleUniform("+second+");\n"+tail)
		if err == nil {
			t.Fatalf("second sampleUniform(%s) certified", second)
		}
		if msg := err.Error(); !strings.Contains(msg, "1:21") || !strings.Contains(msg, "1:1") ||
			!strings.Contains(msg, "sampleUniform") {
			t.Errorf("sampleUniform(%s): error %q does not name both calls", second, msg)
		}
	}
	// Through the front end the refusal is a certification-stage error.
	if _, _, _, err := Admit("sampleUniform(0.5); sampleUniform(1);\n"+tail, db); err == nil ||
		!strings.HasPrefix(err.Error(), "certification: 1:21: ") {
		t.Errorf("Admit: %v", err)
	}
}

// The runtime evaluates topk's k, so the certifier charges the inferred
// bound of a k that is not a literal (it used to charge k = 1), and refuses a
// topk that releases nothing.
func TestTopKCountFromRange(t *testing.T) {
	lit := mustCertify(t, "aggr = sum(db);\nbest = topk(aggr, 4, 0.1);\noutput(declassify(best[0]));")
	for _, src := range []string{
		"aggr = sum(db);\nk = 4;\nbest = topk(aggr, k, 0.1);\noutput(declassify(best[0]));",
		"aggr = sum(db);\nbest = topk(aggr, 2 + 2, 0.1);\noutput(declassify(best[0]));",
	} {
		if c := mustCertify(t, src); c.Epsilon != lit.Epsilon {
			t.Errorf("ε = %g, want the literal-k price %g for\n%s", c.Epsilon, lit.Epsilon, src)
		}
	}
	if _, err := certify(t, "aggr = sum(db);\nbest = topk(aggr, 0, 0.1);\noutput(1);"); err == nil {
		t.Error("topk with k = 0 certified")
	}
}

// A loop nest whose static trip count overflows int64 used to wrap the
// invocation multiplier — here to a negative count, so a negative ε.
func TestLoopNestOverflowRejected(t *testing.T) {
	const nest = `aggr = sum(db);
for i = 0 to 4000000000 do
  for j = 0 to 4000000000 do
    n = laplace(aggr[0], 0.1);
  endfor;
endfor;
output(1);`
	if c, err := certify(t, nest); err == nil {
		t.Errorf("overflowing loop nest certified at ε = %g", c.Epsilon)
	}
	big := mustCertify(t, `aggr = sum(db);
for i = 0 to 3999999999 do
  n = laplace(aggr[0], 0.1);
endfor;
output(1);`)
	if math.Abs(big.Epsilon-4e8) > 1 {
		t.Errorf("4e9 iterations × 0.1 certified at ε = %g", big.Epsilon)
	}
}

func TestClipSensitivity(t *testing.T) {
	// A product of two sensitive values has unbounded sensitivity; clipping
	// caps it at the clip width, which the Laplace mechanism then uses.
	c := mustCertify(t, `
aggr = sum(db);
v = clip(aggr[0] * aggr[1], 0, 50);
n = laplace(v, 0.1);
output(declassify(n));
`)
	if c.Sensitivity != 50 {
		t.Errorf("sensitivity = %d, want 50 (clip width)", c.Sensitivity)
	}
	// Clipping a sensitivity-1 count cannot increase its sensitivity.
	c2 := mustCertify(t, `
aggr = sum(db);
v = clip(aggr[0], 0, 50);
n = laplace(v, 0.1);
output(declassify(n));
`)
	if c2.Sensitivity != 1 {
		t.Errorf("clipped count sensitivity = %d, want 1", c2.Sensitivity)
	}
}

func TestNoOutputRejected(t *testing.T) {
	if _, err := certify(t, `aggr = sum(db);`); err == nil {
		t.Fatal("query without output certified")
	}
}

func TestPublicOutputOK(t *testing.T) {
	mustCertify(t, `x = 1 + 2; output(x);`)
}

func TestBudgetChargeAndExhaustion(t *testing.T) {
	b, err := NewBudget(1.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	cert := &Certificate{Epsilon: 0.4, Delta: 1e-9}
	if err := b.Charge(cert); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(cert); err != nil {
		t.Fatal(err)
	}
	// Third charge exceeds ε=1.0.
	if err := b.Charge(cert); err == nil {
		t.Fatal("over-budget query accepted")
	}
	eps, _ := b.Remaining()
	if math.Abs(eps-0.2) > 1e-9 {
		t.Errorf("remaining ε = %g, want 0.2", eps)
	}
	if b.Queries() != 2 {
		t.Errorf("queries = %d, want 2", b.Queries())
	}
}

func TestBudgetDeltaExhaustion(t *testing.T) {
	b, _ := NewBudget(10, 1e-12)
	cert := &Certificate{Epsilon: 0.1, Delta: 1e-9}
	if err := b.Charge(cert); err == nil {
		t.Fatal("δ-exceeding query accepted")
	}
}

func TestBadBudget(t *testing.T) {
	if _, err := NewBudget(0, 1e-6); err == nil {
		t.Fatal("ε=0 budget accepted")
	}
	if _, err := NewBudget(1, -1); err == nil {
		t.Fatal("negative δ budget accepted")
	}
}

// Nested composition: a mechanism inside a conditional inside a loop
// multiplies by the loop count (the branch may run every iteration).
func TestMechanismInConditionalLoop(t *testing.T) {
	c := mustCertify(t, `
aggr = sum(db);
total = 0;
for i = 0 to 9 do
  n = laplace(aggr[0], 0.1);
  p = declassify(n);
  if p > 5 then
    total = total + 1;
  endif;
endfor;
output(total);
`)
	if math.Abs(c.Epsilon-1.0) > 1e-9 {
		t.Errorf("ε = %g, want 1.0 (10 iterations × 0.1)", c.Epsilon)
	}
}

// Multiple mechanisms compose sequentially.
func TestSequentialComposition(t *testing.T) {
	c := mustCertify(t, `
aggr = sum(db);
a = laplace(aggr[0], 0.2);
b = em(aggr, 0.3);
output(declassify(a));
output(b);
`)
	if math.Abs(c.Epsilon-0.5) > 1e-9 {
		t.Errorf("ε = %g, want 0.5", c.Epsilon)
	}
	if len(c.Mechanisms) != 2 {
		t.Errorf("mechanisms = %d, want 2", len(c.Mechanisms))
	}
}

// len() of a sensitive array is public metadata.
func TestLenIsPublic(t *testing.T) {
	mustCertify(t, `
aggr = sum(db);
n = len(aggr);
output(n);
`)
}

// A mechanism output used as an array index keeps the array's taint: the
// element is still sensitive.
func TestIndexByNoisedValueKeepsTaint(t *testing.T) {
	if _, err := certify(t, `
aggr = sum(db);
i = em(aggr, 0.1);
output(aggr[i]);
`); err == nil {
		t.Fatal("outputting a raw element selected by a noised index certified")
	}
}

// A Laplace argument of unbounded sensitivity is refused at its call site.
// The product of two counts moves without limit when one row moves between
// them, and the certifier used to charge it at sensitivity 1: noise at scale
// 1/ε over a release one device could shift by the size of the population.
func TestUnboundedLaplaceSensitivityRefused(t *testing.T) {
	src := "aggr = sum(db); x = aggr[0] * aggr[1]; n = laplace(x, 5.0); output(declassify(n));"
	_, _, cert, err := Admit(src, db)
	if err == nil {
		t.Fatalf("certified at ε = %g, sensitivity %d", cert.Epsilon, cert.Mechanisms[0].Sensitivity)
	}
	if !strings.HasPrefix(err.Error(), "certification: 1:44") || !errors.Is(err, ErrUnboundedSensitivity) {
		t.Errorf("refused with %q, want a positioned ErrUnboundedSensitivity", err)
	}
	// Zero times an unbounded value is NaN to the analysis, which used to
	// convert to a garbage int64 sensitivity; it is refused the same way.
	if _, _, _, err := Admit("aggr = sum(db); n = laplace(0 * (aggr[0] * aggr[1]), 5.0); output(declassify(n));", db); !errors.Is(err, ErrUnboundedSensitivity) {
		t.Errorf("0 · (aggr[0] · aggr[1]): Admit = %v, want the unbounded-sensitivity refusal", err)
	}
	// A bounded argument of the same shape, scaled by a public constant,
	// still certifies at its own sensitivity.
	c := mustCertify(t, "aggr = sum(db); x = aggr[0] * 3; n = laplace(x, 5.0); output(declassify(n));")
	if got := c.Mechanisms[0].Sensitivity; got != 3 {
		t.Errorf("aggr[0] * 3 certified at sensitivity %d, want 3", got)
	}
}

// An explicit ε must be positive: the certifier used to fall back to the
// default for a literal ≤ 0 while the runtime ran the literal — charged 0.1,
// executed at ε = 0.
func TestEpsilonLiteralMustBePositive(t *testing.T) {
	for _, call := range []string{
		"laplace(aggr[0], 0)", "laplace(aggr[0], 0.0)",
		"em(aggr, 0)", "topk(aggr, 2, 0.0)[0]",
	} {
		src := "aggr = sum(db);\noutput(declassify(" + call + "));"
		c, err := certify(t, src)
		if err == nil {
			t.Errorf("%s certified at ε = %g", call, c.Epsilon)
			continue
		}
		if !strings.Contains(err.Error(), "2:19") || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s refused with %q, want a positioned ε-must-be-positive error", call, err)
		}
	}
	// A non-literal ε is the default at certification and at run time alike.
	c := mustCertify(t, "aggr = sum(db);\ne = 0;\noutput(declassify(laplace(aggr[0], e)));")
	if m := c.Mechanisms[0]; m.CallEpsilon != defaultEpsilon || c.Epsilon != m.CallEpsilon {
		t.Errorf("non-literal ε certified as %+v (total %g), want the default", m, c.Epsilon)
	}
}

// Every mechanism call is recorded where the runtime will look it up: by
// call position, with the ε it runs at and, for topk, the certified k.
func TestMechanismUseCarriesCallSite(t *testing.T) {
	c := mustCertify(t, "aggr = sum(db);\nbest = topk(aggr, 3, 0.5);\nn = laplace(aggr[0], 2.0);\noutput(declassify(n));")
	if len(c.Mechanisms) != 2 {
		t.Fatalf("mechanisms = %+v", c.Mechanisms)
	}
	tk, lap := c.Mechanisms[0], c.Mechanisms[1]
	if tk.Pos != (lang.Pos{Line: 2, Col: 8}) || tk.K != 3 || tk.CallEpsilon != 0.5 || tk.Epsilon != 1.5 {
		t.Errorf("topk use = %+v", tk)
	}
	if lap.Pos != (lang.Pos{Line: 3, Col: 5}) || lap.K != 0 || lap.CallEpsilon != 2 || lap.Epsilon != 2 {
		t.Errorf("laplace use = %+v", lap)
	}
}

// A mechanism call in a loop bound runs once per evaluation of the loop and
// must be charged; the certifier used to skip the bounds entirely.
func TestMechanismInLoopBoundCharged(t *testing.T) {
	c := mustCertify(t, "aggr = sum(db);\nfor i = 0 to em(aggr, 1.0) do\n  x = i;\nendfor;\noutput(x);")
	if len(c.Mechanisms) != 1 || c.Epsilon != 1 {
		t.Errorf("em in a loop bound certified as ε = %g, mechanisms %+v", c.Epsilon, c.Mechanisms)
	}
}
