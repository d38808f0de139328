// Package eval regenerates every table and figure of the paper's evaluation
// (Section 7). Each experiment has one generator returning structured rows
// plus a text renderer; cmd/experiments prints them and a Test*Shape test
// asserts each one's shape. Absolute numbers come from this repository's
// calibrated cost model, so the point of comparison with the paper is the
// *shape*: who wins, by what factor, and where the crossovers fall (see
// EXPERIMENTS.md).
package eval

import (
	"fmt"
	"strings"

	"arboretum/internal/baseline"
	"arboretum/internal/costmodel"
	"arboretum/internal/plan"
	"arboretum/internal/planner"
	"arboretum/internal/queries"
)

// PaperN is the evaluation's deployment size: 2^30 ≈ 10^9 participants.
const PaperN = int64(1) << 30

// planFor plans one evaluation query at the paper's setting.
func planFor(q queries.Query, n int64, limits costmodel.Limits) (*planner.Result, error) {
	return planner.Plan(planner.Request{
		Name:       q.Name,
		Source:     q.Source,
		N:          n,
		Categories: q.Categories,
		Goal:       costmodel.PartExpCPU,
		Limits:     limits,
	})
}

// --- Table 1 ---

// Table1Row is one column of Table 1 (transposed to rows per system).
type Table1Row struct {
	System       string
	AggTime      string // qualitative, as in the paper
	TypBandwidth string
	MaxBandwidth string
	Numerical    bool
	Categorical  string // "Yes", "Limited", "No"
	Contribute   string
	Optimization string
}

// Table1 reproduces the approach comparison for the zip-code query
// (Section 3.2: 10^8 participants, 41,683 categories).
func Table1() ([]Table1Row, error) {
	p := baseline.Params{N: 1e8, Categories: 41683}
	fhe := baseline.EstimateFHE(p)
	a2a := baseline.EstimateAllToAll(p)
	boe := baseline.EstimateBoehler(p)
	orc := baseline.EstimateOrchard(p)
	res, err := planner.Plan(planner.Request{
		Name: "zipcode", Source: queries.Top1.Source, N: p.N,
		Categories: p.Categories, Goal: costmodel.PartExpCPU,
		Limits: planner.DefaultLimits,
	})
	if err != nil {
		return nil, err
	}
	arb := baseline.ArboretumRow(res.Plan)

	human := func(b float64) string {
		switch {
		case b >= 1e15:
			return fmt.Sprintf("%.0f PB", b/1e15)
		case b >= 1e12:
			return fmt.Sprintf("%.1f TB", b/1e12)
		case b >= 1e9:
			return fmt.Sprintf("%.1f GB", b/1e9)
		case b >= 1e6:
			return fmt.Sprintf("%.1f MB", b/1e6)
		default:
			return fmt.Sprintf("%.0f kB", b/1e3)
		}
	}
	hours := func(s float64) string {
		switch {
		case s >= 365*24*3600:
			return fmt.Sprintf("%.0f years", s/(365*24*3600))
		case s >= 3600:
			return fmt.Sprintf("%.1f h", s/3600)
		default:
			return fmt.Sprintf("%.0f s", s)
		}
	}
	return []Table1Row{
		{System: "FHE", AggTime: hours(fhe.Cost.AggCPU),
			TypBandwidth: human(fhe.Cost.PartExpBytes), MaxBandwidth: human(fhe.Cost.PartMaxBytes),
			Numerical: true, Categorical: "Yes", Contribute: "No", Optimization: "No"},
		{System: "All-to-all MPC", AggTime: "N/A",
			TypBandwidth: human(a2a.Cost.PartExpBytes), MaxBandwidth: human(a2a.Cost.PartMaxBytes),
			Numerical: true, Categorical: "Yes", Contribute: "Yes", Optimization: "No"},
		{System: "Böhler [14]", AggTime: "N/A",
			TypBandwidth: human(boe.Cost.PartExpBytes), MaxBandwidth: human(boe.Cost.PartMaxBytes),
			Numerical: true, Categorical: "Yes", Contribute: "1 committee", Optimization: "No"},
		{System: "Orchard [54]", AggTime: hours(orc.Cost.AggCPU),
			TypBandwidth: human(orc.Cost.PartExpBytes), MaxBandwidth: human(orc.Cost.PartMaxBytes),
			Numerical: true, Categorical: "Limited", Contribute: "1 committee", Optimization: "No"},
		{System: "Arboretum", AggTime: hours(arb.Cost.AggCPU),
			TypBandwidth: human(arb.Cost.PartExpBytes), MaxBandwidth: human(arb.Cost.PartMaxBytes),
			Numerical: true, Categorical: "Yes", Contribute: "Yes", Optimization: "Automatic"},
	}, nil
}

// RenderTable1 formats Table 1 as text.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-16s %-10s %-12s %-12s %-6s %-11s %-12s %s\n",
		"System", "Agg time", "Typ BW", "Worst BW", "Num", "Categorical", "Contribute", "Optimization")
	for _, r := range rows {
		num := "Yes"
		if !r.Numerical {
			num = "No"
		}
		fmt.Fprintf(&sb, "%-16s %-10s %-12s %-12s %-6s %-11s %-12s %s\n",
			r.System, r.AggTime, r.TypBandwidth, r.MaxBandwidth, num, r.Categorical,
			r.Contribute, r.Optimization)
	}
	return sb.String()
}

// --- Table 2 ---

// Table2Row is one supported query.
type Table2Row struct {
	Query  string
	Action string
	From   string
	Lines  int
}

// Table2 lists the supported queries with their line counts.
func Table2() []Table2Row {
	rows := make([]Table2Row, 0, len(queries.All))
	for _, q := range queries.All {
		rows = append(rows, Table2Row{Query: q.Name, Action: q.Action, From: q.From, Lines: q.Lines()})
	}
	return rows
}

// RenderTable2 formats Table 2 as text.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-28s %-26s %s\n", "Query", "Action", "From", "Lines")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-28s %-26s %d\n", r.Query, r.Action, r.From, r.Lines)
	}
	return sb.String()
}

// --- Figures 6-8: per-query costs ---

// QueryCost is one query's planned cost with the figure-oriented splits.
type QueryCost struct {
	Query string
	// Figure 6: expected per-participant cost, split as in the stacked bars.
	ExpEncVerifyCPU   float64 // "Encryption + Verification"
	ExpMPCCPU         float64 // "MPC" (committee expectation)
	ExpEncVerifyBytes float64
	ExpMPCBytes       float64
	// Figure 7: per-member worst case by committee type.
	ByRole map[plan.Role]plan.RoleCost
	// Figure 8: aggregator.
	AggForwardBytes float64
	AggOpsCPU       float64
	AggVerifyCPU    float64
	// Totals and structure.
	Cost           costmodel.Vector
	CommitteeCount int
	CommitteeSize  int
	ServingFrac    float64
	// Baseline bars for the adapted queries (nil otherwise).
	Baseline     *baseline.Estimate
	BaselineName string
}

// QueryCosts plans every evaluation query at the paper's scale and attaches
// the original systems' bars for cms (Honeycrisp), bayes and k-medians
// (Orchard) — the extra columns in Figures 6–8.
func QueryCosts() ([]QueryCost, error) {
	out := make([]QueryCost, 0, len(queries.All))
	for _, q := range queries.All {
		res, err := planFor(q, PaperN, planner.DefaultLimits)
		if err != nil {
			return nil, fmt.Errorf("planning %s: %w", q.Name, err)
		}
		p := res.Plan
		qc := QueryCost{
			Query:             q.Name,
			ExpEncVerifyCPU:   p.BaseCPU,
			ExpMPCCPU:         p.Cost.PartExpCPU - p.BaseCPU,
			ExpEncVerifyBytes: p.BaseBytes,
			ExpMPCBytes:       p.Cost.PartExpBytes - p.BaseBytes,
			ByRole:            p.ByRole,
			AggForwardBytes:   p.AggForwardBytes,
			AggOpsCPU:         p.AggOpsCPU,
			AggVerifyCPU:      p.AggVerifyCPU,
			Cost:              p.Cost,
			CommitteeCount:    p.CommitteeCount,
			CommitteeSize:     p.CommitteeSize,
			ServingFrac:       float64(p.CommitteeCount*p.CommitteeSize) / float64(PaperN),
		}
		switch q.Name {
		case "cms":
			e := baseline.EstimateHoneycrisp(baseline.Params{N: PaperN, Categories: q.Categories, Committee: p.CommitteeSize})
			qc.Baseline, qc.BaselineName = &e, "cms Honeycr."
		case "bayes":
			e := baseline.EstimateOrchard(baseline.Params{N: PaperN, Categories: q.Categories, Committee: p.CommitteeSize})
			qc.Baseline, qc.BaselineName = &e, "bayes Orchard"
		case "k-medians":
			e := baseline.EstimateOrchard(baseline.Params{N: PaperN, Categories: q.Categories, Committee: p.CommitteeSize})
			qc.Baseline, qc.BaselineName = &e, "k medians Orchard"
		}
		out = append(out, qc)
	}
	return out, nil
}

// RenderFigure6 formats the expected per-participant costs (Figure 6a+6b).
func RenderFigure6(rows []QueryCost) string {
	var sb strings.Builder
	sb.WriteString("Figure 6: expected per-participant cost (bandwidth MB / computation s)\n")
	fmt.Fprintf(&sb, "%-18s %12s %8s %14s %8s\n", "query", "enc+verify MB", "MPC MB", "enc+verify s", "MPC s")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %12.2f %8.3f %14.1f %8.2f\n",
			r.Query, r.ExpEncVerifyBytes/1e6, r.ExpMPCBytes/1e6, r.ExpEncVerifyCPU, r.ExpMPCCPU)
		if r.Baseline != nil {
			fmt.Fprintf(&sb, "%-18s %12.2f %8s %14.1f %8s\n",
				r.BaselineName, r.Baseline.Cost.PartExpBytes/1e6, "-", r.Baseline.Cost.PartExpCPU, "-")
		}
	}
	return sb.String()
}

// RenderFigure7 formats committee-member worst cases by committee type.
func RenderFigure7(rows []QueryCost) string {
	var sb strings.Builder
	sb.WriteString("Figure 7: committee-member cost by committee type (traffic GB / computation min)\n")
	fmt.Fprintf(&sb, "%-18s %-12s %10s %10s %8s\n", "query", "role", "GB", "min", "count")
	for _, r := range rows {
		for _, role := range []plan.Role{plan.RoleKeyGen, plan.RoleDecrypt, plan.RoleOps} {
			rc, ok := r.ByRole[role]
			if !ok {
				continue
			}
			fmt.Fprintf(&sb, "%-18s %-12s %10.2f %10.1f %8d\n",
				r.Query, role.String(), rc.Bytes/1e9, rc.CPU/60, rc.Count)
		}
		if r.Baseline != nil {
			fmt.Fprintf(&sb, "%-18s %-12s %10.2f %10.1f %8d\n",
				r.BaselineName, "single", r.Baseline.MemberBytes/1e9, r.Baseline.MemberCPU/60, 1)
		}
	}
	return sb.String()
}

// RenderFigure8 formats the aggregator costs (1,000 cores for the hours
// column, as in Figure 8b).
func RenderFigure8(rows []QueryCost) string {
	var sb strings.Builder
	sb.WriteString("Figure 8: aggregator traffic (TB) and computation (hours on 1,000 cores)\n")
	fmt.Fprintf(&sb, "%-18s %12s %12s %12s %12s\n", "query", "forward TB", "total TB", "ops h", "verify h")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %12.1f %12.1f %12.2f %12.2f\n",
			r.Query, r.AggForwardBytes/1e12, r.Cost.AggBytes/1e12,
			r.AggOpsCPU/3600/1000, r.AggVerifyCPU/3600/1000)
		if r.Baseline != nil {
			fmt.Fprintf(&sb, "%-18s %12s %12.1f %12.2f %12s\n",
				r.BaselineName, "-", r.Baseline.Cost.AggBytes/1e12,
				r.Baseline.Cost.AggCPU/3600/1000, "-")
		}
	}
	return sb.String()
}
