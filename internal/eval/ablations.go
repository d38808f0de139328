// Design ablations (the "what did each planner idea buy" table): plan an
// evaluation query with one operator pinned to each of its implementation
// families in turn and compare what each alternative costs.

package eval

import (
	"fmt"
	"strings"

	"arboretum/internal/costmodel"
	"arboretum/internal/planner"
	"arboretum/internal/queries"
)

// PinnedFamilies lists, per operator, the implementation families that
// PinChoices prices — for DesignAblations and `arboretum explain`.
var PinnedFamilies = map[string][]string{
	// Sum: the aggregator loop vs. device trees of different fanouts
	// (Section 4.3's first example of operator instantiation).
	"sum": {"aggregator-loop", "device-tree-fanout-2", "device-tree-fanout-8", "device-tree-fanout-64"},
	// em: the two instantiations of Figure 4.
	"em": {"gumbel", "exponentiate-mpc", "exponentiate-fhe"},
	// Laplace noising: values per committee.
	"noise":   {"committee-slice-1", "committee-slice-16", "committee-slice-64"},
	"compute": {"aggregator-he", "committee-slice-16", "committee-slice-1024"},
}

// DesignRow prices one pinned design choice at deployment scale — the
// ablations behind the planner's decisions: how much each alternative
// implementation of an operator actually costs (Section 4.3's tradeoffs,
// e.g. "larger degrees will require fewer committees ... lower degrees
// require each committee to do less work").
type DesignRow struct {
	Dimension string // which operator is pinned
	Choice    string // the pinned implementation (prefix)
	Chosen    string // the full choice the search settled on
	Feasible  bool
	Err       error // why no plan fits the pin, when !Feasible

	AggCoreHours float64
	ExpCPU       float64 // expected participant seconds
	ExpMB        float64
	MaxCPU       float64 // worst-case participant seconds
	MaxGB        float64
	Committees   int
}

// PinChoices plans q for n participants once per family PinnedFamilies
// lists for dim, with dim pinned to that family and everything else free.
// A pin no plan fits is a row with Err set; an unknown dim is an error.
func PinChoices(q queries.Query, n int64, dim string) ([]DesignRow, error) {
	families, ok := PinnedFamilies[dim]
	if !ok {
		return nil, fmt.Errorf("unknown dimension %q", dim)
	}
	rows := make([]DesignRow, 0, len(families))
	for _, family := range families {
		res, err := planner.Plan(planner.Request{
			Name: q.Name, Source: q.Source, N: n, Categories: q.Categories,
			Goal: costmodel.PartExpCPU, Limits: planner.DefaultLimits,
			ForceChoices: map[string]string{dim: family},
		})
		row := DesignRow{Dimension: dim, Choice: family, Err: err}
		if err == nil {
			p := res.Plan
			row.Feasible = true
			row.Chosen = p.Choices[dim]
			row.AggCoreHours = p.Cost.AggCPU / 3600
			row.ExpCPU = p.Cost.PartExpCPU
			row.ExpMB = p.Cost.PartExpBytes / 1e6
			row.MaxCPU = p.Cost.PartMaxCPU
			row.MaxGB = p.Cost.PartMaxBytes / 1e9
			row.Committees = p.CommitteeCount
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DesignAblations prices the alternatives for the sum operator and the em
// variant on top1, and for the Laplace noising slice width on bayes (C=115).
func DesignAblations() ([]DesignRow, error) {
	var rows []DesignRow
	for _, pin := range []struct {
		q   queries.Query
		dim string
	}{{queries.Top1, "sum"}, {queries.Top1, "em"}, {queries.Bayes, "noise"}} {
		r, err := PinChoices(pin.q, PaperN, pin.dim)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// RenderDesignAblations formats the design-choice table.
func RenderDesignAblations(rows []DesignRow) string {
	var sb strings.Builder
	sb.WriteString("Design-choice ablations (top1 for sum/em, bayes for noise; N=2^30)\n")
	fmt.Fprintf(&sb, "%-6s %-22s %10s %9s %8s %9s %8s %10s\n",
		"dim", "pinned choice", "agg h", "exp s", "exp MB", "max s", "max GB", "committees")
	for _, r := range rows {
		if !r.Feasible {
			fmt.Fprintf(&sb, "%-6s %-22s %s\n", r.Dimension, r.Choice, "infeasible")
			continue
		}
		fmt.Fprintf(&sb, "%-6s %-22s %10.0f %9.1f %8.2f %9.0f %8.2f %10d\n",
			r.Dimension, r.Choice, r.AggCoreHours, r.ExpCPU, r.ExpMB, r.MaxCPU, r.MaxGB, r.Committees)
	}
	return sb.String()
}
