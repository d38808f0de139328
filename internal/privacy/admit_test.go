package privacy

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"arboretum/internal/lang"
	"arboretum/internal/queries"
	"arboretum/internal/types"
)

// TestAdmitStages: each stage of the front end refuses under its own prefix,
// and an admitted query comes back with all three artefacts.
func TestAdmitStages(t *testing.T) {
	for _, c := range []struct{ src, stage string }{
		{"x = ;", "parse: "},
		{"x = y + 1; output(x);", "types: "},
		{"aggr = sum(db); output(aggr);", "certification: "},
	} {
		if _, _, _, err := Admit(c.src, db); err == nil || !strings.HasPrefix(err.Error(), c.stage) {
			t.Errorf("Admit(%q) = %v, want a %q error", c.src, err, c.stage)
		}
	}
	prog, info, cert, err := Admit(queries.Top1.Source, db)
	if err != nil || prog == nil || info == nil || cert == nil {
		t.Fatalf("Admit(top1) = %v, %v, %v, %v", prog, info, cert, err)
	}
	if cert.Epsilon != defaultEpsilon {
		t.Errorf("top1 ε = %g", cert.Epsilon)
	}
}

// TestQueriesAdmitUnderLoopBound: every built-in query stays inside the
// loop-work bound at the paper's scale, N = 2^30 devices and C = 2^15
// categories, where a loop over the categories runs 2^15 times.
func TestQueriesAdmitUnderLoopBound(t *testing.T) {
	for _, q := range queries.All {
		paper := types.DBInfo{N: 1 << 30, Width: 1 << 15, ElemRange: q.ElemRange}
		if _, _, _, err := Admit(q.Source, paper); err != nil {
			t.Errorf("%s refused at N = 2^30, C = 2^15: %v", q.Name, err)
		}
	}
}

// FuzzAdmit drives the analyst-facing front end — the gateway feeds it query
// text straight from HTTP — with arbitrary source: it must never panic, must
// be a function of its input (two calls agree on refusal or on (ε, δ, sample
// rate)), and whatever it admits must carry a usable certificate: a sample
// rate in (0, 1], a finite δ, at least one mechanism (a query with none is
// refused with ErrNoMechanism), a positive finite ε that is the sequential
// composition of the recorded mechanisms, lowered, never raised, by
// sampling, and a sensitivity of at least 1 on every row. Admitted work is
// bounded too: no loop nest runs its body more than maxLoopWork times.
func FuzzAdmit(f *testing.F) {
	for _, q := range queries.All {
		f.Add(q.Source)
	}
	f.Add("sampleUniform(0.5); sampleUniform(1); aggr = sum(db); c = laplace(aggr[0], 1.0); output(declassify(c));")
	f.Add("")
	f.Add("aggr = sum(db")
	f.Add("sampleUniform(0.5); aggr = sum(db); c = laplace(aggr[0], 800); output(declassify(c));")
	f.Add("aggr = sum(db); acc = 0; for i = 0 to 3 do acc = acc + aggr[0]; endfor; output(declassify(laplace(acc, 1.0)));")
	f.Add("a = true; b = 0; for i = 0 to 1 do t = a; a = b; b = t; endfor; aggr = sum(db); output(declassify(laplace(aggr[0], 1.0)));")
	// 1025² body runs: refused, past maxLoopWork.
	f.Add("aggr = sum(db); for i = 0 to 1024 do if i < 2 then for j = 0 to 1024 do x = j; endfor; endif; endfor; output(declassify(laplace(aggr[0], 1.0)));")
	// 1,500 levels of parentheses: refused with lang.ErrTooDeep, where the
	// recursive descent used to go as deep as the source did.
	f.Add("aggr = sum(db); x = " + strings.Repeat("(", 1500) + "aggr[0]" + strings.Repeat(")", 1500) + "; output(declassify(laplace(x, 1.0)));")
	for _, shape := range admissionShapes(4<<10 - 1) {
		f.Add(shape.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip()
		}
		prog, info, c1, err1 := Admit(src, db)
		_, _, c2, err2 := Admit(src, db)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic admission: %v vs %v", err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("nondeterministic refusal: %q vs %q", err1, err2)
			}
			return
		}
		if c1.Epsilon != c2.Epsilon || c1.Delta != c2.Delta || c1.SampleRate != c2.SampleRate {
			t.Fatalf("nondeterministic certificate: %+v vs %+v", c1, c2)
		}
		if !(c1.SampleRate > 0 && c1.SampleRate <= 1) || math.IsInf(c1.Delta, 0) || math.IsNaN(c1.Delta) {
			t.Fatalf("admitted with sample rate %g, δ %g", c1.SampleRate, c1.Delta)
		}
		var composed float64
		for _, m := range c1.Mechanisms {
			if !(m.Epsilon > 0) || m.Invocations < 1 || m.Sensitivity < 1 {
				t.Fatalf("admitted with mechanism %+v", m)
			}
			composed += m.Epsilon * float64(m.Invocations)
		}
		switch {
		case len(c1.Mechanisms) == 0:
			t.Fatalf("admitted with no mechanism at ε = %g", c1.Epsilon)
		case math.IsInf(c1.Epsilon, 0) || !(c1.Epsilon > 0):
			t.Fatalf("admitted at ε = %g", c1.Epsilon)
		case c1.SampleRate == 1 && c1.Epsilon != composed:
			t.Fatalf("ε = %g, mechanisms compose to %g", c1.Epsilon, composed)
		case c1.Epsilon > composed*(1+1e-12):
			t.Fatalf("ε = %g at sample rate %g, mechanisms compose to %g", c1.Epsilon, c1.SampleRate, composed)
		}
		if w := loopWork(info, prog.Stmts); w > maxLoopWork {
			t.Fatalf("admitted a loop nest that runs its body %d times, more than %d", w, maxLoopWork)
		}
	})
}

// admissionShapes are four adversarial sources, each cut to exactly size
// bytes (1 MiB for TestAllocGateAdmission, under 4 KiB for FuzzAdmit): deep
// parentheses and a long binary chain, which the parser's depth cap refuses,
// and a long statement list and many loops, which at 1 MiB its token cap
// refuses. A front end that lexed the whole source first read all of each.
func admissionShapes(size int) []struct{ name, src string } {
	fill := func(head, unit, tail string) string {
		n := (size - len(head) - len(tail)) / len(unit)
		src := head + strings.Repeat(unit, n) + tail
		return src + strings.Repeat(" ", size-len(src))
	}
	const release = "output(declassify(laplace(aggr[0], 1.0)));"
	return []struct{ name, src string }{
		{"parentheses", fill("x = ", "(", "")},
		{"binary chain", fill("aggr = sum(db); x = aggr[0]", " + 1", ";")},
		{"statement list", fill("aggr = sum(db); ", "x = 1; ", release)},
		{"loops", fill("aggr = sum(db); ", "for i = 0 to 1 do x = 1; endfor; ", release)},
	}
}

// loopWork is the most times any loop nest in stmts runs its innermost body:
// the largest product of types.Info.LoopIters down a nest, through both arms
// of every if, saturated at maxLoopWork+1.
func loopWork(info *types.Info, stmts []lang.Stmt) int64 {
	most := int64(1)
	for _, s := range stmts {
		switch st := s.(type) {
		case *lang.ForStmt:
			iters, inner := info.LoopIters(st), loopWork(info, st.Body)
			if iters > maxLoopWork/inner {
				return maxLoopWork + 1
			}
			most = max(most, iters*inner)
		case *lang.IfStmt:
			most = max(most, loopWork(info, st.Then), loopWork(info, st.Else))
		}
	}
	return most
}

// TestNoMechanismRefused: a program that calls no mechanism — public output
// only, or sensitive data it never releases — is refused with
// ErrNoMechanism, not certified at ε = 0.
func TestNoMechanismRefused(t *testing.T) {
	for _, src := range []string{
		"output(1);",
		"aggr = sum(db);\nx = aggr[0] + 1;\noutput(2);",
	} {
		if _, _, c, err := Admit(src, db); !errors.Is(err, ErrNoMechanism) {
			t.Errorf("%q: certified %+v, err %v; want ErrNoMechanism", src, c, err)
		}
	}
}

// TestAmplifiedEpsilonOverflowRefused: amplification by sampling overflows
// e^ε past ε ≈ 709; admission refuses such a query instead of certifying it
// at ε = +Inf.
func TestAmplifiedEpsilonOverflowRefused(t *testing.T) {
	const src = "sampleUniform(0.5); aggr = sum(db); c = laplace(aggr[0], %s); output(declassify(c));"
	if _, _, c, err := Admit(fmt.Sprintf(src, "700"), db); err != nil || math.IsInf(c.Epsilon, 0) {
		t.Fatalf("ε = 700: %v, %v", c, err)
	}
	if _, _, c, err := Admit(fmt.Sprintf(src, "800"), db); !errors.Is(err, ErrEpsilonOverflow) {
		t.Errorf("ε = 800 sampled: certified %+v, err %v; want ErrEpsilonOverflow", c, err)
	}
}

// TestQuerySiteSensitivities pins the sensitivity each call site of the
// evaluation queries is certified at, at their own category counts: em and
// topk are charged by how far one row moves their scores, the rule laplace
// uses. Auction's revenue p·atleast[p] moves by up to 2·(C−1) at C = 2^15 and
// median's shifted deviation by 4; gap's em and its laplace each keep their
// own.
func TestQuerySiteSensitivities(t *testing.T) {
	want := map[string][]int64{
		"top1": {1}, "topK": {1}, "gap": {1, 2}, "auction": {65534},
		"hypotest": {1}, "secrecy": {1}, "median": {4}, "cms": {1},
		"bayes": {1}, "k-medians": {1},
	}
	for _, q := range queries.All {
		_, _, cert, err := Admit(q.Source, types.DBInfo{N: 1 << 20, Width: q.Categories, ElemRange: q.ElemRange})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		var got []int64
		for _, m := range cert.Mechanisms {
			got = append(got, m.Sensitivity)
		}
		if !slices.Equal(got, want[q.Name]) {
			t.Errorf("%s: site sensitivities %v, want %v", q.Name, got, want[q.Name])
		}
	}
}
