package eval

import (
	"strings"
	"testing"

	"arboretum/internal/plan"
)

func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.System] = r
	}
	// FHE takes years; Arboretum takes hours.
	if !strings.Contains(byName["FHE"].AggTime, "year") {
		t.Errorf("FHE agg time = %s, want years", byName["FHE"].AggTime)
	}
	if !strings.Contains(byName["Arboretum"].AggTime, "h") {
		t.Errorf("Arboretum agg time = %s, want hours", byName["Arboretum"].AggTime)
	}
	// All-to-all's typical bandwidth is catastrophic; Arboretum's is MBs.
	if !strings.Contains(byName["All-to-all MPC"].TypBandwidth, "TB") &&
		!strings.Contains(byName["All-to-all MPC"].TypBandwidth, "PB") {
		t.Errorf("all-to-all bandwidth = %s", byName["All-to-all MPC"].TypBandwidth)
	}
	if !strings.Contains(byName["Arboretum"].TypBandwidth, "MB") {
		t.Errorf("Arboretum bandwidth = %s, want MBs", byName["Arboretum"].TypBandwidth)
	}
	// Orchard's categorical support is limited; Arboretum's automatic
	// optimization is the distinguishing row.
	if byName["Orchard [54]"].Categorical != "Limited" {
		t.Error("Orchard categorical should be Limited")
	}
	if byName["Arboretum"].Optimization != "Automatic" {
		t.Error("Arboretum optimization should be Automatic")
	}
	if RenderTable1(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(rows))
	}
	if rows[0].Query != "top1" || rows[0].Lines != 3 {
		t.Errorf("first row = %+v, want top1 with 3 lines", rows[0])
	}
	text := RenderTable2(rows)
	for _, q := range []string{"top1", "median", "k-medians"} {
		if !strings.Contains(text, q) {
			t.Errorf("rendering missing %s", q)
		}
	}
}

// Figures 6-8 shape assertions (the paper's headline comparisons).
func TestQueryCostsShape(t *testing.T) {
	rows, err := QueryCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]QueryCost{}
	for _, r := range rows {
		byName[r.Query] = r
	}
	// Figure 6: EM queries cost more than Laplace queries; topK tops the
	// chart; expected costs stay in a usable band.
	top1, topK, cms := byName["top1"], byName["topK"], byName["cms"]
	if top1.Cost.PartExpCPU <= cms.Cost.PartExpCPU {
		t.Error("top1 should cost more than cms in expectation")
	}
	if topK.Cost.PartExpCPU <= top1.Cost.PartExpCPU {
		t.Error("topK should be the most expensive query")
	}
	for _, r := range rows {
		if r.Cost.PartExpCPU < 1 || r.Cost.PartExpCPU > 200 {
			t.Errorf("%s expected CPU %.1f s outside the plausible band", r.Query, r.Cost.PartExpCPU)
		}
	}
	// Figure 7: keygen dominates committee CPU everywhere, and no other
	// committee type's traffic strays far above it.
	for _, r := range rows {
		kg, ok := r.ByRole[plan.RoleKeyGen]
		if !ok {
			t.Errorf("%s has no keygen committee", r.Query)
			continue
		}
		for role, rc := range r.ByRole {
			if rc.CPU > kg.CPU {
				t.Errorf("%s: %v member CPU %.3g exceeds keygen %.3g", r.Query, role, rc.CPU, kg.CPU)
			}
			if rc.Bytes > 2*kg.Bytes {
				t.Errorf("%s: %v member bytes %.2g far above keygen %.2g", r.Query, role, rc.Bytes, kg.Bytes)
			}
		}
	}
	// Committee structure: EM queries use far more committees; the serving
	// fraction stays tiny (paper: 0.00022%–0.49%).
	if topK.CommitteeCount < 20*cms.CommitteeCount {
		t.Errorf("topK committees %d vs cms %d: EM should dwarf Laplace",
			topK.CommitteeCount, cms.CommitteeCount)
	}
	for _, r := range rows {
		if r.ServingFrac <= 0 || r.ServingFrac > 0.02 {
			t.Errorf("%s serving fraction %g outside (0, 2%%]", r.Query, r.ServingFrac)
		}
	}
	// Figure 8: the aggregator forwards more for EM queries.
	if topK.AggForwardBytes <= cms.AggForwardBytes {
		t.Error("topK should make the aggregator forward more than cms")
	}
	// The baseline bars exist for the three adapted queries.
	for _, name := range []string{"cms", "bayes", "k-medians"} {
		if byName[name].Baseline == nil {
			t.Errorf("%s has no original-system bar", name)
		}
	}
	// Orchard's expected costs are near Arboretum's for the adapted queries
	// (the paper: "almost identical in expectation").
	b := byName["bayes"]
	ratio := b.Cost.PartExpCPU / b.Baseline.Cost.PartExpCPU
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("bayes Arboretum/Orchard expected-cost ratio %g, want ~1", ratio)
	}
	for _, render := range []string{RenderFigure6(rows), RenderFigure7(rows), RenderFigure8(rows)} {
		if render == "" {
			t.Error("empty figure rendering")
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	rows, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	byName := map[string]PlannerRun{}
	for _, r := range rows {
		byName[r.Query] = r
		if r.Prefixes <= 0 || r.Candidates <= 0 {
			t.Errorf("%s: empty search stats %+v", r.Query, r)
		}
	}
	// The paper: planning time varies widely with the query; every query
	// that selects by the exponential mechanism (em or top-k) explores more
	// prefixes than every query that only adds Laplace noise.
	for _, sel := range []string{"top1", "topK", "gap", "auction", "median"} {
		for _, lap := range []string{"hypotest", "secrecy", "cms", "bayes", "k-medians"} {
			if byName[sel].Prefixes <= byName[lap].Prefixes {
				t.Errorf("%s explores %d prefixes, Laplace-only %s %d: want more",
					sel, byName[sel].Prefixes, lap, byName[lap].Prefixes)
			}
		}
	}
	if RenderFigure9(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestAblationShape(t *testing.T) {
	rows, err := Ablation(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	blowups := 0
	for _, r := range rows {
		if r.WithoutAborted {
			blowups++ // the paper's OOM analogue
			continue
		}
		if r.WithoutPrefixes < r.WithPrefixes {
			t.Errorf("%s: exhaustive search explored fewer prefixes", r.Query)
		}
	}
	// At least the complex queries must blow up or explore much more.
	anyBig := blowups > 0
	for _, r := range rows {
		if r.PrefixBlowup > 3 {
			anyBig = true
		}
	}
	if !anyBig {
		t.Error("disabling branch-and-bound had no effect on any query")
	}
	if RenderAblation(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestFigure10Shape(t *testing.T) {
	rows, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]ScalePoint{} // {logN, limit bucket}
	limKey := func(h float64) int {
		switch h {
		case 1000:
			return 1
		case 5000:
			return 2
		default:
			return 0
		}
	}
	for _, r := range rows {
		byKey[[2]int{r.LogN, limKey(r.LimitHours)}] = r
	}
	// No limit: aggregator cost grows with N; expected participant cost
	// falls; max cost stays flat (Section 7.6's pattern).
	small := byKey[[2]int{18, 0}]
	big := byKey[[2]int{30, 0}]
	if !small.Feasible || !big.Feasible {
		t.Fatal("no-limit points must be feasible")
	}
	if big.AggHours <= small.AggHours {
		t.Error("aggregator cost should grow with N")
	}
	if big.ExpCPUMin >= small.ExpCPUMin {
		t.Error("expected participant cost should fall with N (committee odds shrink)")
	}
	if big.MaxCPUMin < small.MaxCPUMin*0.5 || big.MaxCPUMin > small.MaxCPUMin*2 {
		t.Errorf("max participant cost should stay ~constant: %g vs %g",
			small.MaxCPUMin, big.MaxCPUMin)
	}
	// A=1000: feasible at 2^28, infeasible beyond (the red line stops).
	if !byKey[[2]int{28, 1}].Feasible {
		t.Error("A=1000 should still be feasible at 2^28")
	}
	if byKey[[2]int{30, 1}].Feasible {
		t.Error("A=1000 should be infeasible at 2^30 (ZKP checks alone exceed it)")
	}
	// Under a binding limit the planner outsources the sum, raising the
	// participants' expected cost relative to no-limit at the same N.
	lim5k := byKey[[2]int{30, 2}]
	if !lim5k.Feasible {
		t.Fatal("A=5000 at 2^30 should be feasible")
	}
	if lim5k.SumChoice == "aggregator-loop" && big.SumChoice == "aggregator-loop" &&
		lim5k.ExpCPUMin < big.ExpCPUMin {
		t.Error("limited plan should not be cheaper for participants")
	}
	if RenderFigure10(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestFigure11Shape(t *testing.T) {
	rows, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no power rows")
	}
	budget := 0.05 * 1624.0
	for _, r := range rows {
		if r.MAh < 0 {
			t.Errorf("%s/%s negative power", r.Query, r.Role)
		}
		// The paper: below 5% of an iPhone SE battery for all queries.
		if r.MAh > budget {
			t.Errorf("%s/%s uses %.1f mAh, above the 5%% battery line (%.0f)",
				r.Query, r.Role, r.MAh, budget)
		}
	}
	if RenderFigure11(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestHeterogeneityShape(t *testing.T) {
	h, err := Heterogeneity()
	if err != nil {
		t.Fatal(err)
	}
	if h.Rounds <= 0 {
		t.Fatal("no measured rounds")
	}
	// Geo-distribution blows up round-bound MPCs by several hundred percent
	// (the paper: +606%); slow devices add tens of percent (+51%).
	if h.GeoIncrease < 100 {
		t.Errorf("geo increase %.0f%%, want several hundred percent", h.GeoIncrease)
	}
	if h.SlowIncrease < 20 || h.SlowIncrease > 120 {
		t.Errorf("slow-device increase %.0f%%, want tens of percent", h.SlowIncrease)
	}
	if RenderHeterogeneity(h) == "" {
		t.Error("empty rendering")
	}
}

func TestDesignAblations(t *testing.T) {
	rows, err := DesignAblations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	byChoice := map[string]DesignRow{}
	for _, r := range rows {
		byChoice[r.Dimension+"/"+r.Choice] = r
		// FHE exponentiation of 2^15 encrypted scores is the one alternative
		// that genuinely cannot fit any reasonable aggregator budget —
		// Section 3.3's point about the exponential mechanism under FHE.
		if r.Dimension == "em" && r.Choice == "exponentiate-fhe" {
			if r.Feasible {
				t.Error("FHE exponentiation should be infeasible under default limits")
			}
			continue
		}
		if !r.Feasible {
			t.Errorf("%s=%s infeasible", r.Dimension, r.Choice)
		}
	}
	// The sum tradeoff (Section 4.3): the aggregator loop is cheapest for
	// participants; device trees relieve the aggregator at participant cost.
	loop := byChoice["sum/aggregator-loop"]
	tree := byChoice["sum/device-tree-fanout-8"]
	if tree.AggCoreHours >= loop.AggCoreHours {
		t.Error("a device tree should relieve the aggregator")
	}
	if tree.ExpCPU < loop.ExpCPU {
		t.Error("a device tree should cost participants more in expectation")
	}
	// The em tradeoff: both MPC variants work; their costs are comparable.
	mpcExp := byChoice["em/exponentiate-mpc"]
	gum := byChoice["em/gumbel"]
	if !mpcExp.Feasible || !gum.Feasible {
		t.Fatal("both MPC em variants should be feasible")
	}
	if mpcExp.ExpCPU < gum.ExpCPU/3 || mpcExp.ExpCPU > gum.ExpCPU*3 {
		t.Errorf("the two MPC em variants should be in the same cost class: %g vs %g",
			mpcExp.ExpCPU, gum.ExpCPU)
	}
	// The noising-slice tradeoff: smaller slices → more committees.
	s1 := byChoice["noise/committee-slice-1"]
	s64 := byChoice["noise/committee-slice-64"]
	if s1.Committees <= s64.Committees {
		t.Error("per-value noising should use more committees than coarse slicing")
	}
	if RenderDesignAblations(rows) == "" {
		t.Error("empty rendering")
	}
}

func TestCSVExports(t *testing.T) {
	costs, err := QueryCosts()
	if err != nil {
		t.Fatal(err)
	}
	csvData, err := CSVQueryCosts(costs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvData), "\n")
	if len(lines) != 11 { // header + 10 queries
		t.Errorf("query_costs.csv has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "query,") {
		t.Errorf("bad header: %s", lines[0])
	}
	p9, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if csvData, err := CSVFigure9(p9); err != nil || !strings.Contains(csvData, "median") {
		t.Errorf("figure9 csv: %v", err)
	}
	p10, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if csvData, err := CSVFigure10(p10); err != nil || !strings.Contains(csvData, "infeasible") && !strings.Contains(csvData, "false") {
		t.Errorf("figure10 csv should mark infeasible points: %v", err)
	}
	p11, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if csvData, err := CSVFigure11(p11); err != nil || !strings.Contains(csvData, "keygen") {
		t.Errorf("figure11 csv: %v", err)
	}
}
