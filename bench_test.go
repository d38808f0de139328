package arboretum

// One benchmark per table and figure of the paper's evaluation (Section 7).
// Each benchmark drives the corresponding generator in internal/eval — the
// same code cmd/experiments uses to print the tables — so `go test -bench=.`
// regenerates every result. See EXPERIMENTS.md for paper-vs-measured notes.

import (
	"testing"

	"arboretum/internal/eval"
	"arboretum/internal/planner"
	"arboretum/internal/runtime"
)

// BenchmarkTable1 regenerates the strawman comparison (FHE, all-to-all MPC,
// Böhler, Orchard, Arboretum) for the zip-code query at N = 10^8.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable2 regenerates the supported-queries table with line counts.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := eval.Table2(); len(rows) != 10 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure6 regenerates the expected per-participant bandwidth and
// computation for all ten queries (plus the Honeycrisp/Orchard bars).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.QueryCosts()
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RenderFigure6(rows)
	}
}

// BenchmarkFigure7 regenerates the committee-member costs by committee type.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.QueryCosts()
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RenderFigure7(rows)
	}
}

// BenchmarkFigure8 regenerates the aggregator bandwidth and computation.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.QueryCosts()
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RenderFigure8(rows)
	}
}

// BenchmarkFigure9 regenerates the planner-runtime figure: it *is* the
// planner benchmark, timing the search on all ten queries.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkAblationBranchAndBound regenerates the Section 7.3 ablation:
// planner with the pruning heuristics disabled.
func BenchmarkAblationBranchAndBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Ablation(2_000_000)
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RenderAblation(rows)
	}
}

// BenchmarkFigure10 regenerates the scalability sweep (N = 2^17 … 2^30 with
// aggregator budgets of 1,000 / 5,000 / ∞ core-hours).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RenderFigure10(rows)
	}
}

// BenchmarkFigure11 regenerates the power-consumption figure.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RenderFigure11(rows)
	}
}

// BenchmarkGeoDistribution regenerates the Section 7.5 geo-distribution
// experiment (Gumbel MPC across Mumbai / New York / Paris / Sydney).
func BenchmarkGeoDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := eval.Heterogeneity()
		if err != nil {
			b.Fatal(err)
		}
		if h.GeoIncrease <= 0 {
			b.Fatal("no geo effect")
		}
	}
}

// BenchmarkSlowDevices regenerates the Section 7.5 slow-device experiment
// (Pi-4-class stragglers in the committee).
func BenchmarkSlowDevices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := eval.Heterogeneity()
		if err != nil {
			b.Fatal(err)
		}
		if h.SlowIncrease <= 0 {
			b.Fatal("no slow-device effect")
		}
	}
}

// BenchmarkValidation regenerates the cost-model validation table (the
// paper's Appendix C analogue): predicted vs. measured MPC comparisons on
// real executions.
func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Validate()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Match() {
				b.Fatalf("%s: predicted %d, measured %d", r.Program, r.Predicted, r.Measured)
			}
		}
	}
}

// BenchmarkDesignAblations regenerates the design-choice ablation table:
// what each pinned alternative (sum tree fanouts, em variants, noise slice
// widths) would cost — the tradeoffs of Section 4.3 that DESIGN.md calls
// out.
func BenchmarkDesignAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.DesignAblations()
		if err != nil {
			b.Fatal(err)
		}
		_ = eval.RenderDesignAblations(rows)
	}
}

// --- supporting micro- and end-to-end benchmarks ---

// BenchmarkEndToEndGumbelVsExponentiate compares the two em instantiations
// end to end (the trade-off of Figure 4).
func BenchmarkEndToEndGumbelVsExponentiate(b *testing.B) {
	src := "aggr = sum(db);\nresult = em(aggr, 2.0);\noutput(result);"
	for _, family := range []string{"gumbel", "exponentiate-mpc"} {
		family := family
		b.Run(family, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := runtime.NewDeployment(runtime.Config{
					N: 64, Categories: 8, CommitteeSize: 5, Seed: int64(i),
					BudgetEpsilon: 1e9,
				})
				if err != nil {
					b.Fatal(err)
				}
				req := d.PlanRequest(src)
				req.ForceChoices = map[string]string{"em": family}
				p, err := planner.Plan(req)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.RunPlan(p.Plan, src, runtime.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAccuracy regenerates the end-to-end utility curve (hit rate of
// the true mode vs ε) on real executions.
func BenchmarkAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.Accuracy(4)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}
