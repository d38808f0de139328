package queries

import (
	"fmt"
	"testing"

	"arboretum/internal/lang"
	"arboretum/internal/privacy"
	"arboretum/internal/types"
)

// Every evaluation query must parse, type-check, and certify as
// differentially private at its deployment parameters.
func TestAllQueriesCertify(t *testing.T) {
	for _, q := range All {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			prog, err := lang.Parse(q.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			info, err := types.Infer(prog, types.DBInfo{
				N: 1 << 20, Width: q.Categories, ElemRange: q.ElemRange,
			})
			if err != nil {
				t.Fatalf("types: %v", err)
			}
			cert, err := privacy.Certify(prog, info)
			if err != nil {
				t.Fatalf("certify: %v", err)
			}
			if cert.Epsilon <= 0 {
				t.Errorf("ε = %g, want positive", cert.Epsilon)
			}
		})
	}
}

func TestQueriesAreConcise(t *testing.T) {
	// Table 2's point: queries are formulated concisely (3–39 lines in the
	// paper). Our concrete syntax differs slightly, so allow a little slack.
	for _, q := range All {
		lines := q.Lines()
		if lines < 2 || lines > 60 {
			t.Errorf("%s: %d lines, outside the concise range", q.Name, lines)
		}
	}
	if Top1.Lines() != 3 {
		t.Errorf("top1 = %d lines, Table 2 says 3", Top1.Lines())
	}
}

func TestTableTwoOrderingAndNames(t *testing.T) {
	want := []string{"top1", "topK", "gap", "auction", "hypotest", "secrecy",
		"median", "cms", "bayes", "k-medians"}
	if len(All) != len(want) {
		t.Fatalf("got %d queries, want %d", len(All), len(want))
	}
	for i, q := range All {
		if q.Name != want[i] {
			t.Errorf("query %d = %s, want %s", i, q.Name, want[i])
		}
		if q.Action == "" || q.From == "" {
			t.Errorf("%s missing Table 2 metadata", q.Name)
		}
	}
}

func TestCategoriesMatchEvaluationSetup(t *testing.T) {
	// Section 7.1: C=1 for hypotest and cms, C=10 for k-medians, C=115 for
	// bayes, C=2^15 for the others.
	cases := map[string]int64{
		"hypotest": 1, "cms": 1, "secrecy": 1,
		"k-medians": 10, "bayes": 115,
		"top1": 1 << 15, "topK": 1 << 15, "gap": 1 << 15,
		"auction": 1 << 15, "median": 1 << 15,
	}
	for name, c := range cases {
		q, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if q.Categories != c {
			t.Errorf("%s categories = %d, want %d", name, q.Categories, c)
		}
	}
	if TopK.K != 5 {
		t.Errorf("topK k = %d, want 5 (Section 7.1)", TopK.K)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown query accepted")
	}
}

// The exponential-mechanism queries must actually contain em/topk calls and
// the Laplace ones laplace calls — the evaluation's grouping depends on it.
func TestMechanismGrouping(t *testing.T) {
	hasCall := func(q Query, fn string) bool {
		found := false
		lang.WalkExprs(q.Program().Stmts, func(e lang.Expr) {
			if c, ok := e.(*lang.CallExpr); ok && c.Func == fn {
				found = true
			}
		})
		return found
	}
	for _, name := range []string{"top1", "gap", "auction", "median"} {
		q, _ := ByName(name)
		if !hasCall(q, "em") {
			t.Errorf("%s should use em", name)
		}
	}
	if q, _ := ByName("topK"); !hasCall(q, "topk") {
		t.Error("topK should use topk")
	}
	for _, name := range []string{"hypotest", "secrecy", "cms", "bayes", "k-medians"} {
		q, _ := ByName(name)
		if !hasCall(q, "laplace") {
			t.Errorf("%s should use laplace", name)
		}
	}
	if q, _ := ByName("secrecy"); !hasCall(q, "sampleUniform") {
		t.Error("secrecy should use sampleUniform")
	}
}

func TestQuantileSourceCertifies(t *testing.T) {
	for _, frac := range [][2]int64{{1, 2}, {1, 4}, {3, 4}, {9, 10}} {
		src, err := QuantileSource(frac[0], frac[1])
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%d/%d: parse: %v", frac[0], frac[1], err)
		}
		info, err := types.Infer(prog, types.DBInfo{
			N: 1 << 20, Width: 64, ElemRange: types.Range{Lo: 0, Hi: 1},
		})
		if err != nil {
			t.Fatalf("%d/%d: types: %v", frac[0], frac[1], err)
		}
		if _, err := privacy.Certify(prog, info); err != nil {
			t.Fatalf("%d/%d: certify: %v", frac[0], frac[1], err)
		}
	}
}

func TestQuantileSourceRejectsBadFractions(t *testing.T) {
	for _, frac := range [][2]int64{{0, 2}, {2, 2}, {3, 2}, {1, 0}, {-1, 4}} {
		if _, err := QuantileSource(frac[0], frac[1]); err == nil {
			t.Errorf("QuantileSource(%d, %d) accepted", frac[0], frac[1])
		}
	}
}

// QuantileSource builds a query selecting the bucket at the num/den quantile
// of a one-hot-encoded value domain — the paper notes the median query "can
// be easily extended to support quantiles". The median is QuantileSource(1, 2).
func QuantileSource(num, den int64) (string, error) {
	if den <= 0 || num <= 0 || num >= den {
		return "", fmt.Errorf("queries: quantile %d/%d out of (0, 1)", num, den)
	}
	return fmt.Sprintf(`hist = sum(db);
n = len(hist);
rank[0] = hist[0];
for i = 1 to n - 1 do
  rank[i] = rank[i - 1] + hist[i];
endfor;
total = rank[n - 1];
target = total * %d / %d;
for i = 0 to n - 1 do
  dev[i] = rank[i] - target;
  mag[i] = abs(dev[i]);
  util[i] = 0 - mag[i];
endfor;
q = em(util, 0.1);
output(q);`, num, den), nil
}
