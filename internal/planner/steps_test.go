package planner

import (
	"testing"

	"arboretum/internal/costmodel"
	"arboretum/internal/lang"
	"arboretum/internal/privacy"
	"arboretum/internal/queries"
	"arboretum/internal/types"
)

func decomposeQuery(t *testing.T, q queries.Query) []step {
	t.Helper()
	prog := lang.MustParse(q.Source)
	info, err := types.Infer(prog, types.DBInfo{
		N: 1 << 20, Width: q.Categories, ElemRange: types.Range{Lo: 0, Hi: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := decompose(prog, info)
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

func kinds(steps []step) []stepKind {
	out := make([]stepKind, len(steps))
	for i, s := range steps {
		out[i] = s.kind
	}
	return out
}

func TestDecomposeTop1(t *testing.T) {
	steps := decomposeQuery(t, queries.Top1)
	want := []stepKind{stepInput, stepSum, stepEM, stepOutput}
	got := kinds(steps)
	if len(got) != len(want) {
		t.Fatalf("steps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %v, want %v", i, got[i], want[i])
		}
	}
	if steps[2].c != queries.Top1.Categories {
		t.Errorf("em width = %d", steps[2].c)
	}
}

func TestDecomposeSecrecyPlacesSampleAfterInput(t *testing.T) {
	steps := decomposeQuery(t, queries.Secrecy)
	got := kinds(steps)
	if got[0] != stepInput || got[1] != stepSample {
		t.Fatalf("sample must follow input: %v", got)
	}
}

func TestDecomposeTopKCarriesK(t *testing.T) {
	steps := decomposeQuery(t, queries.TopK)
	found := false
	for _, s := range steps {
		if s.kind == stepTopK {
			found = true
			if s.k != 5 {
				t.Errorf("topk k = %d, want 5", s.k)
			}
		}
	}
	if !found {
		t.Fatal("no topk step")
	}
}

func TestDecomposeMedianHasComputeWithComparisons(t *testing.T) {
	steps := decomposeQuery(t, queries.Median)
	var compute *step
	for i := range steps {
		if steps[i].kind == stepCompute && steps[i].ops.cmps > 0 {
			compute = &steps[i]
		}
	}
	if compute == nil {
		t.Fatal("median should have a compute step with comparisons (abs/clip)")
	}
	// abs + clip per element over 2^15 elements.
	if compute.ops.cmps < queries.Median.Categories {
		t.Errorf("compute cmps = %d, want ≥ %d", compute.ops.cmps, queries.Median.Categories)
	}
}

func TestDecomposeBayesNoisesPerElement(t *testing.T) {
	steps := decomposeQuery(t, queries.Bayes)
	for _, s := range steps {
		if s.kind == stepNoise {
			if s.c != 115 {
				t.Errorf("noise width = %d, want 115 (loop-folded)", s.c)
			}
			return
		}
	}
	t.Fatal("no noise step")
}

func TestDecomposeGapHasMaxSelAndNoise(t *testing.T) {
	got := kinds(decomposeQuery(t, queries.Gap))
	haveMax, haveNoise, haveEM := false, false, false
	for _, k := range got {
		switch k {
		case stepMaxSel:
			haveMax = true
		case stepNoise:
			haveNoise = true
		case stepEM:
			haveEM = true
		}
	}
	if !haveMax || !haveNoise || !haveEM {
		t.Fatalf("gap steps missing pieces: %v", got)
	}
}

func TestDecomposeRejectsNoOutput(t *testing.T) {
	prog := lang.MustParse(`aggr = sum(db);`)
	info, err := types.Infer(prog, types.DBInfo{N: 100, Width: 4, ElemRange: types.Range{Hi: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decompose(prog, info); err == nil {
		t.Fatal("output-free program decomposed")
	}
}

func TestStepKindStrings(t *testing.T) {
	for k := stepInput; k <= stepOutput; k++ {
		if k.String() == "" {
			t.Errorf("step kind %d unnamed", k)
		}
	}
	if stepKind(99).String() == "" {
		t.Error("unknown step kind unnamed")
	}
}

func TestBiteSizeFilter(t *testing.T) {
	sp := defaultSpace(1<<30, costmodel.Default())
	// A compute step with a huge total comparison count: the coarse slices
	// must be filtered out, the fine ones kept.
	st := step{kind: stepCompute, c: 1 << 15, ops: opTally{cmps: 1 << 16}}
	p := newPool()
	opts := sp.optionsFor(st, p)
	if len(opts) == 0 {
		t.Fatal("no options survived")
	}
	for _, o := range opts {
		if !p.biteSize(o) {
			t.Errorf("non-bite-size option %s survived the filter", o.choiceVal)
		}
	}
}

// FuzzDecompose: on every program the front end admits, decompose's counts
// are exact. No tally wraps or comes near saturating: a body counts at most
// one operation per token (2^16 of them), and admission caps how often a loop
// nest runs its body (2^20), so the five tallies of a step sum to at most
// 2^36. Every width is at least 1.
func FuzzDecompose(f *testing.F) {
	for _, q := range queries.All {
		f.Add(q.Source)
	}
	f.Add("aggr = sum(db); c = declassify(laplace(aggr[0], 1.0)); x = 0; for i = 0 to 1048575 do x = x + c * 3 / 2 - exp(c); endfor; output(x);")
	f.Add("aggr = sum(db); x = 0; for i = 0 to 1023 do for j = 0 to 1023 do if x < j then x = x + i * j; endif; endfor; endfor; output(declassify(laplace(x, 1.0)));")
	f.Add("aggr = sum(db); for i = 0 to 1023 do n = declassify(laplace(aggr[i], 1.0)); output(n); endfor;")
	f.Add("aggr = sum(db); for i = 0 to 9000000000000000000 * 2 do x = aggr[0] * 3; endfor; output(declassify(laplace(x, 1.0)));")
	db := types.DBInfo{N: 1 << 20, Width: 1 << 15, ElemRange: types.Range{Hi: 1}}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip()
		}
		prog, info, _, err := privacy.Admit(src, db)
		if err != nil {
			return
		}
		steps, err := decompose(prog, info)
		if err != nil {
			t.Fatalf("admitted, then refused by decompose: %v", err)
		}
		for _, st := range steps {
			o := st.ops
			if st.c < 1 || min(o.adds, o.mults, o.divs, o.cmps, o.exps) < 0 || o.total() > 1<<36 {
				t.Fatalf("%v step has width %d and tally %+v", st.kind, st.c, o)
			}
		}
	})
}
