// Cross-validation of the cost model: planned (predicted) costs versus
// costs measured by actually executing each query on a simulated
// deployment.

package eval

import (
	"fmt"
	"strings"

	"arboretum/internal/mechanism"
	"arboretum/internal/runtime"
)

// ValidationRow compares the cost model's predicted operation count for one
// committee program against the count measured on a real execution — the
// analogue of the paper's cost-model validation data (Section 6: "We include
// validation data for our model in [44, §C]"). Operation counts are the
// model's structural backbone: if the predicted comparison counts match the
// executed protocol, the per-operation constants carry the rest.
type ValidationRow struct {
	Program   string
	Predicted int
	Measured  int
}

// Match reports whether measured is within tolerance of predicted.
func (r ValidationRow) Match() bool {
	d := r.Measured - r.Predicted
	if d < 0 {
		d = -d
	}
	// Exact for the tournament counts; a couple of slack comparisons for
	// protocols with data-dependent clamping.
	return d <= r.Predicted/8+1
}

// Validate runs the core committee programs on real deployments and counts
// the comparison protocols they execute.
func Validate() ([]ValidationRow, error) {
	const categories = 8
	run := func(src string, variant mechanism.EMVariant, seed int64) (int, error) {
		d, err := runtime.NewDeployment(runtime.Config{
			N: 64, Categories: categories, CommitteeSize: 5, Seed: seed,
			BudgetEpsilon: 1e9,
			Data:          func(i int) int { return i % categories },
		})
		if err != nil {
			return 0, err
		}
		if _, err := runForcedEM(d, src, variant); err != nil {
			return 0, err
		}
		return d.Metrics.MPCComparisons, nil
	}

	var rows []ValidationRow
	// Gumbel argmax over C scores: a tournament needs exactly C−1
	// comparisons, independent of fanout.
	top1 := "aggr = sum(db);\nresult = em(aggr, 2.0);\noutput(result);"
	m, err := run(top1, mechanism.EMGumbel, 1)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ValidationRow{
		Program: "em(gumbel), C=8: argmax tournament", Predicted: categories - 1, Measured: m,
	})
	// Exponentiate-select: max tournament (C−1) + one sign test per weight
	// (C) + one CDF comparison per category (C) = 3C−1.
	m, err = run(top1, mechanism.EMExponentiate, 2)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ValidationRow{
		Program: "em(exponentiate), C=8: max + signs + CDF scan", Predicted: 3*categories - 1, Measured: m,
	})
	// top-k peeling: k rounds of C−1 comparisons.
	topk := "aggr = sum(db);\nbest = topk(aggr, 3, 2.0);\noutput(best[0]);"
	m, err = run(topk, mechanism.EMGumbel, 3)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ValidationRow{
		Program: "topk(3), C=8: 3 peeling rounds", Predicted: 3 * (categories - 1), Measured: m,
	})
	// Laplace noising never compares.
	lap := "aggr = sum(db);\nnoised = laplace(aggr[0], 2.0);\noutput(declassify(noised));"
	m, err = run(lap, mechanism.EMGumbel, 4)
	if err != nil {
		return nil, err
	}
	rows = append(rows, ValidationRow{
		Program: "laplace: no comparisons", Predicted: 0, Measured: m,
	})
	return rows, nil
}

// RenderValidation formats the validation table.
func RenderValidation(rows []ValidationRow) string {
	var sb strings.Builder
	sb.WriteString("Cost-model validation: predicted vs. measured MPC comparisons\n")
	fmt.Fprintf(&sb, "%-50s %10s %10s %7s\n", "committee program", "predicted", "measured", "match")
	for _, r := range rows {
		ok := "yes"
		if !r.Match() {
			ok = "NO"
		}
		fmt.Fprintf(&sb, "%-50s %10d %10d %7s\n", r.Program, r.Predicted, r.Measured, ok)
	}
	return sb.String()
}
