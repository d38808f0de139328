package planner

import (
	"errors"
	"testing"

	"arboretum/internal/costmodel"
	"arboretum/internal/plan"
	"arboretum/internal/queries"
)

const testN = 1 << 30 // 2^30 ≈ 10^9, the paper's deployment scale

func planQuery(t *testing.T, q queries.Query, n int64) *Result {
	t.Helper()
	res, err := Plan(Request{
		Name:       q.Name,
		Source:     q.Source,
		N:          n,
		Categories: q.Categories,
		Goal:       costmodel.PartExpCPU,
		Limits:     DefaultLimits,
	})
	if err != nil {
		t.Fatalf("Plan(%s): %v", q.Name, err)
	}
	return res
}

func TestPlanTop1(t *testing.T) {
	res := planQuery(t, queries.Top1, testN)
	p := res.Plan
	if p.CommitteeSize < 20 || p.CommitteeSize > 150 {
		t.Errorf("committee size = %d, paper reports ~40", p.CommitteeSize)
	}
	if p.CommitteeCount < 2 {
		t.Errorf("committee count = %d, want at least keygen + ops", p.CommitteeCount)
	}
	// The plan must start with key generation (Section 4.5).
	if p.Vignettes[0].Role != plan.RoleKeyGen {
		t.Errorf("first vignette = %v, want keygen", p.Vignettes[0].Desc)
	}
	// It must include a device-parallel input vignette covering everyone.
	foundInput := false
	for _, v := range p.Vignettes {
		if v.Loc == plan.Device && v.Count == testN {
			foundInput = true
		}
	}
	if !foundInput {
		t.Error("no all-device input vignette")
	}
	// An em choice must be recorded.
	if p.Choices["em"] == "" {
		t.Error("no em variant recorded")
	}
	if res.Certificate == nil || res.Certificate.Epsilon != 0.1 {
		t.Errorf("certificate = %+v", res.Certificate)
	}
}

func TestAllQueriesPlan(t *testing.T) {
	for _, q := range queries.All {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			res := planQuery(t, q, testN)
			p := res.Plan
			if _, bad := DefaultLimits.Violated(p.Cost); bad {
				t.Errorf("chosen plan violates limits: %+v", p.Cost)
			}
			if p.Cost.PartExpCPU <= 0 || p.Cost.PartExpBytes <= 0 {
				t.Errorf("degenerate expected cost: %+v", p.Cost)
			}
			if p.Cost.PartMaxCPU < p.Cost.PartExpCPU {
				t.Errorf("max < expected participant CPU: %+v", p.Cost)
			}
			if res.Stats.PrefixesExplored == 0 || res.Stats.FullCandidates == 0 {
				t.Errorf("search stats empty: %+v", res.Stats)
			}
		})
	}
}

// Figure 6's headline shape: exponential-mechanism queries cost participants
// more than Laplace-mechanism queries, and topK is the most expensive.
func TestEMCostsMoreThanLaplace(t *testing.T) {
	top1 := planQuery(t, queries.Top1, testN).Plan
	topK := planQuery(t, queries.TopK, testN).Plan
	cms := planQuery(t, queries.CMS, testN).Plan
	if top1.Cost.PartExpCPU <= cms.Cost.PartExpCPU {
		t.Errorf("top1 (%g s) should cost more than cms (%g s)",
			top1.Cost.PartExpCPU, cms.Cost.PartExpCPU)
	}
	if topK.Cost.PartExpCPU <= top1.Cost.PartExpCPU {
		t.Errorf("topK (%g s) should cost more than top1 (%g s)",
			topK.Cost.PartExpCPU, top1.Cost.PartExpCPU)
	}
}

// Expected participant costs must land in the paper's band: "each
// participant sends between 132 kB and 3 MB and spends between 7.1 s and
// 62.4 s of computation time" (Section 7.2). Allow a generous envelope.
func TestExpectedCostBand(t *testing.T) {
	for _, q := range queries.All {
		p := planQuery(t, q, testN).Plan
		if p.Cost.PartExpCPU < 1 || p.Cost.PartExpCPU > 200 {
			t.Errorf("%s expected CPU = %.1f s, outside [1, 200]", q.Name, p.Cost.PartExpCPU)
		}
		if p.Cost.PartExpBytes < 5e4 || p.Cost.PartExpBytes > 2e7 {
			t.Errorf("%s expected bytes = %.0f, outside [50 kB, 20 MB]", q.Name, p.Cost.PartExpBytes)
		}
	}
}

// Committee-member worst cases: keygen is the most expensive committee
// (~700 MB, ~14 min) and everything stays within the participant limits.
func TestKeyGenIsMostExpensiveCommittee(t *testing.T) {
	p := planQuery(t, queries.Top1, testN).Plan
	kg, ok := p.ByRole[plan.RoleKeyGen]
	if !ok {
		t.Fatal("no keygen role cost")
	}
	if kg.Bytes < 5e8 {
		t.Errorf("keygen member bytes = %g, want ~7e8", kg.Bytes)
	}
	for role, rc := range p.ByRole {
		if role == plan.RoleKeyGen {
			continue
		}
		if rc.Bytes > kg.Bytes {
			t.Errorf("role %v bytes %g exceed keygen %g", role, rc.Bytes, kg.Bytes)
		}
	}
	if p.Cost.PartMaxBytes > 4e9 {
		t.Errorf("max participant bytes %g exceed the 4 GB limit", p.Cost.PartMaxBytes)
	}
}

// EM queries need far more committees than Laplace queries (Section 7.2:
// topK has 115k+ committees; cms has a handful).
func TestCommitteeCountShape(t *testing.T) {
	topK := planQuery(t, queries.TopK, testN).Plan
	cms := planQuery(t, queries.CMS, testN).Plan
	if topK.CommitteeCount < 50*cms.CommitteeCount {
		t.Errorf("topK committees (%d) should dwarf cms committees (%d)",
			topK.CommitteeCount, cms.CommitteeCount)
	}
	// Serving fraction stays tiny (paper: 0.00022%–0.49%).
	frac := float64(topK.CommitteeCount*topK.CommitteeSize) / float64(testN)
	if frac > 0.02 {
		t.Errorf("topK serving fraction = %g, want ≤ 2%%", frac)
	}
}

// With an aggregator limit, the planner outsources the sum to the devices
// (Figure 10's crossover); without one it keeps the simple aggregator loop.
func TestAggregatorLimitForcesOutsourcing(t *testing.T) {
	noLimit, err := Plan(Request{
		Name: "top1", Source: queries.Top1.Source, N: testN,
		Categories: queries.Top1.Categories,
		Goal:       costmodel.AggCPU,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := noLimit.Plan.Choices["sum"]; got != "aggregator-loop" {
		// Goal AggCPU without limits must pick the... cheapest aggregator
		// option, which is the device tree. Accept either but record it.
		t.Logf("no-limit sum choice: %s", got)
	}
	expGoal, err := Plan(Request{
		Name: "top1", Source: queries.Top1.Source, N: testN,
		Categories: queries.Top1.Categories,
		Goal:       costmodel.PartExpCPU,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := expGoal.Plan.Choices["sum"]; got != "aggregator-loop" {
		t.Errorf("unlimited PartExpCPU goal should keep the aggregator loop, got %s", got)
	}
	// A tight aggregator budget forces the device tree.
	tight, err := Plan(Request{
		Name: "top1", Source: queries.Top1.Source, N: testN,
		Categories: queries.Top1.Categories,
		Goal:       costmodel.PartExpCPU,
		Limits:     costmodel.Limits{AggCPU: float64(testN) * 0.011}, // barely covers ZKP checks
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tight.Plan.Choices["sum"]; got == "aggregator-loop" {
		t.Errorf("tight aggregator budget should outsource the sum, got %s", got)
	}
	if tight.Plan.Cost.PartExpCPU <= expGoal.Plan.Cost.PartExpCPU {
		t.Error("outsourcing should raise expected participant cost")
	}
}

// When not even the ZKP checks fit, planning must fail (the red line in
// Figure 10 stops at N = 2^28).
func TestInfeasibleAggregatorBudget(t *testing.T) {
	_, err := Plan(Request{
		Name: "top1", Source: queries.Top1.Source, N: testN,
		Categories: queries.Top1.Categories,
		Goal:       costmodel.PartExpCPU,
		Limits:     costmodel.Limits{AggCPU: 1000}, // absurd: 1000 core-seconds
	})
	if err == nil {
		t.Fatal("infeasible budget produced a plan")
	}
}

// Branch-and-bound: enabling pruning must not change the winner, only the
// work (Section 7.3: without the heuristics the planner takes orders of
// magnitude longer or dies).
func TestBranchAndBoundPreservesOptimum(t *testing.T) {
	req := Request{
		Name: "cms", Source: queries.CMS.Source, N: 1 << 20,
		Categories: queries.CMS.Categories,
		Goal:       costmodel.PartExpCPU,
		Limits:     DefaultLimits,
	}
	with, err := Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	req.DisableBranchAndBound = true
	without, err := Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if with.Plan.Cost.PartExpCPU != without.Plan.Cost.PartExpCPU {
		t.Errorf("pruned %g vs exhaustive %g expected CPU",
			with.Plan.Cost.PartExpCPU, without.Plan.Cost.PartExpCPU)
	}
	if without.Stats.PrefixesExplored < with.Stats.PrefixesExplored {
		t.Errorf("exhaustive search explored fewer prefixes (%d) than pruned (%d)",
			without.Stats.PrefixesExplored, with.Stats.PrefixesExplored)
	}
	if with.Stats.Pruned == 0 {
		t.Error("branch-and-bound never pruned")
	}
}

// The node cap models the paper's OOM: with pruning disabled and a small
// cap, complex queries abort. A lone task is the node counter's only writer,
// so it stops at exactly the first node past the cap.
func TestNodeCapAborts(t *testing.T) {
	res, err := Plan(Request{
		Name: "median", Source: queries.Median.Source, N: testN,
		Categories:            queries.Median.Categories,
		Goal:                  costmodel.PartExpCPU,
		Limits:                DefaultLimits,
		DisableBranchAndBound: true,
		NodeCap:               1000,
		Workers:               1,
	})
	if !errors.Is(err, ErrNodeCap) {
		t.Fatalf("capped exhaustive search: %v, want ErrNodeCap", err)
	}
	if !res.Stats.Aborted || res.Stats.PrefixesExplored != 1001 {
		t.Errorf("stats %+v, want Aborted after exactly 1001 prefixes", res.Stats)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := Plan(Request{Source: "output(1);", N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Plan(Request{Source: "x = ;", N: 100}); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := Plan(Request{Source: "output(db[0][0]);", N: 100, Categories: 4}); err == nil {
		t.Error("non-private query accepted")
	}
}

// Planner determinism: the same request yields the same plan.
func TestPlanDeterministic(t *testing.T) {
	a := planQuery(t, queries.Median, 1<<24).Plan
	b := planQuery(t, queries.Median, 1<<24).Plan
	if a.Cost != b.Cost {
		t.Errorf("plans differ: %+v vs %+v", a.Cost, b.Cost)
	}
	for k, v := range a.Choices {
		if b.Choices[k] != v {
			t.Errorf("choice %s differs: %s vs %s", k, v, b.Choices[k])
		}
	}
}

// The planner's String output must look like Figure 5.
func TestPlanString(t *testing.T) {
	p := planQuery(t, queries.Top1, 1<<20).Plan
	s := p.String()
	if s == "" {
		t.Fatal("empty plan rendering")
	}
	for _, want := range []string{"keygen", "vignette", "cost:"} {
		if !contains(s, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func BenchmarkPlanTop1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Plan(Request{
			Name: "top1", Source: queries.Top1.Source, N: testN,
			Categories: queries.Top1.Categories,
			Goal:       costmodel.PartExpCPU,
			Limits:     DefaultLimits,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanMedian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := Plan(Request{
			Name: "median", Source: queries.Median.Source, N: testN,
			Categories: queries.Median.Categories,
			Goal:       costmodel.PartExpCPU,
			Limits:     DefaultLimits,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ForceChoices pins a step to one implementation family — the lever behind
// the design-choice ablations and `arboretum explain`.
func TestForceChoices(t *testing.T) {
	base := Request{
		Name: "top1", Source: queries.Top1.Source, N: testN,
		Categories: queries.Top1.Categories,
		Goal:       costmodel.PartExpCPU, Limits: DefaultLimits,
	}
	base.ForceChoices = map[string]string{"sum": "device-tree"}
	forced, err := Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := forced.Plan.Choices["sum"]; len(got) < 11 || got[:11] != "device-tree" {
		t.Errorf("forced sum choice = %s", got)
	}
	// Forcing the non-optimal choice cannot improve the goal metric.
	free, err := Plan(Request{
		Name: "top1", Source: queries.Top1.Source, N: testN,
		Categories: queries.Top1.Categories,
		Goal:       costmodel.PartExpCPU, Limits: DefaultLimits,
	})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Plan.Cost.PartExpCPU < free.Plan.Cost.PartExpCPU {
		t.Error("forcing a choice beat the free search on the goal metric")
	}
	// An unmatched prefix errors.
	base.ForceChoices = map[string]string{"sum": "nonexistent"}
	if _, err := Plan(base); err == nil {
		t.Error("bogus forced choice accepted")
	}
	// Forcing the em variant works too.
	base.ForceChoices = map[string]string{"em": "exponentiate"}
	expPlan, err := Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := expPlan.Plan.Choices["em"]; len(got) < 4 || got[:4] != "expo" {
		t.Errorf("forced em choice = %s", got)
	}
}

// Property: as the deployment grows, the aggregator's cost never falls and
// the expected participant cost never rises (more devices → same mandatory
// work per device, smaller committee odds) — Figure 10's monotonicities,
// checked across the whole sweep.
func TestCostMonotonicityInN(t *testing.T) {
	prevAgg, prevExp := 0.0, 1e18
	for logN := 17; logN <= 30; logN++ {
		res, err := Plan(Request{
			Name: "top1", Source: queries.Top1.Source, N: 1 << logN,
			Categories: queries.Top1.Categories,
			Goal:       costmodel.PartExpCPU, Limits: DefaultLimits,
		})
		if err != nil {
			t.Fatalf("logN=%d: %v", logN, err)
		}
		c := res.Plan.Cost
		if c.AggCPU < prevAgg {
			t.Errorf("logN=%d: aggregator cost fell: %g < %g", logN, c.AggCPU, prevAgg)
		}
		if c.PartExpCPU > prevExp+1e-9 {
			t.Errorf("logN=%d: expected participant cost rose: %g > %g", logN, c.PartExpCPU, prevExp)
		}
		prevAgg, prevExp = c.AggCPU, c.PartExpCPU
	}
}

// Property: widening categories never makes the plan cheaper on any
// participant metric (more categories → at least as many ciphertexts and
// committee work).
func TestCostMonotonicityInCategories(t *testing.T) {
	prev := costmodel.Vector{}
	for _, c := range []int64{1 << 10, 1 << 12, 1 << 15, 1 << 16} {
		res, err := Plan(Request{
			Name: "top1", Source: queries.Top1.Source, N: 1 << 28,
			Categories: c,
			Goal:       costmodel.PartExpCPU, Limits: DefaultLimits,
		})
		if err != nil {
			t.Fatalf("C=%d: %v", c, err)
		}
		got := res.Plan.Cost
		if got.PartExpBytes+1e-9 < prev.PartExpBytes {
			t.Errorf("C=%d: expected bytes fell: %g < %g", c, got.PartExpBytes, prev.PartExpBytes)
		}
		prev = got
	}
}

// Property: every goal produces a plan that is optimal for that goal among
// the plans produced for all goals (self-consistency of the search).
func TestGoalSelfConsistency(t *testing.T) {
	goals := []costmodel.Metric{
		costmodel.AggCPU, costmodel.AggBytes,
		costmodel.PartExpCPU, costmodel.PartExpBytes,
		costmodel.PartMaxCPU, costmodel.PartMaxBytes,
		costmodel.PartExpEnergy,
	}
	plans := map[costmodel.Metric]costmodel.Vector{}
	for _, g := range goals {
		res, err := Plan(Request{
			Name: "gap", Source: queries.Gap.Source, N: 1 << 26,
			Categories: queries.Gap.Categories,
			Goal:       g, Limits: DefaultLimits,
		})
		if err != nil {
			t.Fatalf("goal %v: %v", g, err)
		}
		plans[g] = res.Plan.Cost
	}
	for _, g := range goals {
		mine := plans[g].Get(g)
		for _, other := range goals {
			if plans[other].Get(g) < mine*(1-1e-9) {
				t.Errorf("goal %v: plan optimized for %v scores better (%g < %g)",
					g, other, plans[other].Get(g), mine)
			}
		}
	}
}
