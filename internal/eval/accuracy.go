// Accuracy-versus-epsilon trials: repeated end-to-end runs per ε on small
// simulated deployments, reporting how often the DP answer matches the
// true answer.

package eval

import (
	"fmt"
	"strings"

	"arboretum/internal/mechanism"
	"arboretum/internal/planner"
	"arboretum/internal/runtime"
)

// AccuracyRow reports the utility of the exponential mechanism at one ε:
// how often the end-to-end system returns the true most-frequent category.
// Not a paper figure (the paper's guarantees are analytic), but the utility
// curve is what an analyst actually trades ε against, and measuring it on
// real executions exercises the whole pipeline.
type AccuracyRow struct {
	Epsilon float64
	Trials  int
	Correct int
	HitRate float64
	Variant mechanism.EMVariant
}

// Accuracy sweeps ε for the top1 query on deployments where the true mode
// leads by a fixed margin, measuring the hit rate end to end.
func Accuracy(trialsPerEps int) ([]AccuracyRow, error) {
	const (
		devices    = 64
		categories = 8
		mode       = 5
	)
	data := func(i int) int {
		if i%2 == 0 {
			return mode // margin: 32 + 4 vs ~4 per other category
		}
		return i % categories
	}
	var rows []AccuracyRow
	for _, eps := range []float64{0.05, 0.5, 2.0} {
		row := AccuracyRow{Epsilon: eps, Trials: trialsPerEps, Variant: mechanism.EMGumbel}
		for trial := 0; trial < trialsPerEps; trial++ {
			d, err := runtime.NewDeployment(runtime.Config{
				N: devices, Categories: categories, CommitteeSize: 5,
				Seed: int64(trial)*31 + int64(eps*1000), BudgetEpsilon: 1e9,
				Data: data,
			})
			if err != nil {
				return nil, err
			}
			src := fmt.Sprintf("aggr = sum(db);\nresult = em(aggr, %g);\noutput(result);", eps)
			res, err := runForcedEM(d, src, row.Variant)
			if err != nil {
				return nil, err
			}
			if res.Outputs[0].Int() == mode {
				row.Correct++
			}
		}
		row.HitRate = float64(row.Correct) / float64(trialsPerEps)
		rows = append(rows, row)
	}
	return rows, nil
}

// runForcedEM executes src under the deployment's own-shape plan with the em
// step pinned to one instantiation of Figure 4.
func runForcedEM(d *runtime.Deployment, src string, v mechanism.EMVariant) (*runtime.Result, error) {
	req := d.PlanRequest(src)
	req.ForceChoices = map[string]string{"em": "gumbel"}
	if v == mechanism.EMExponentiate {
		req.ForceChoices["em"] = "exponentiate-mpc"
	}
	res, err := planner.Plan(req)
	if err != nil {
		return nil, err
	}
	return d.RunPlan(res.Plan, src, runtime.RunOptions{})
}

// RenderAccuracy formats the utility curve.
func RenderAccuracy(rows []AccuracyRow) string {
	var sb strings.Builder
	sb.WriteString("Utility of top1 vs ε (end-to-end, 64 devices, mode margin ~32)\n")
	fmt.Fprintf(&sb, "%-8s %8s %8s %8s\n", "epsilon", "trials", "correct", "hit rate")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8g %8d %8d %7.0f%%\n", r.Epsilon, r.Trials, r.Correct, 100*r.HitRate)
	}
	return sb.String()
}
