package runtime

// The plan → run seam: Run is plan-at-own-shape + RunPlan, a plan is the only
// carrier of an execution choice, and a plan the runtime cannot execute — or
// a query it will not search a plan for — is refused before anything is
// selected, charged or collected.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"arboretum/internal/mechanism"
	"arboretum/internal/planner"
	"arboretum/internal/queries"
)

// untouched asserts that a refused run spent nothing: full budget, no
// sortition.
func untouched(t *testing.T, d *Deployment, eps float64) {
	t.Helper()
	if left, _ := d.Budget.Remaining(); left != eps {
		t.Errorf("refused run left ε = %g of %g", left, eps)
	}
	if d.Metrics.CommitteesFormed != 0 {
		t.Errorf("refused run formed %d committees", d.Metrics.CommitteesFormed)
	}
}

// TestRunIsPlanThenExecute: for every corpus query (three named ones under
// the race detector), Run(src) is bit-for-bit RunPlan(the executable plan at
// the deployment's own shape, src), at GOMAXPROCS one and four — and no call
// site releases more ε than the certificate charged it.
func TestRunIsPlanThenExecute(t *testing.T) {
	corpus := queries.All
	if len(seamQueries) > 0 {
		corpus = nil
		for _, name := range seamQueries {
			q, err := queries.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			corpus = append(corpus, q)
		}
	}
	for _, q := range corpus {
		for _, workers := range []int{1, 4} {
			deploy := func() *Deployment {
				return smallDeployment(t, 64, 8, func(c *Config) {
					c.Seed, c.BudgetEpsilon, c.KeyBits = 3, 1000, 256
				})
			}
			ran := deploy()
			var got *Result
			var err error
			withProcs(workers, func() { got, err = ran.Run(q.Source, RunOptions{}) })
			if err != nil {
				t.Fatalf("%s workers=%d: Run: %v", q.Name, workers, err)
			}
			planned := deploy()
			res, err := planner.Plan(planned.PlanRequest(q.Source))
			if err != nil {
				t.Fatalf("%s workers=%d: Plan: %v", q.Name, workers, err)
			}
			var want *Result
			withProcs(workers, func() { want, err = planned.RunPlan(res.Plan, q.Source, RunOptions{}) })
			if err != nil {
				t.Fatalf("%s workers=%d: RunPlan: %v", q.Name, workers, err)
			}
			assertSpentCovered(t, got.Certificate, got.Spent, q.Name)
			if !reflect.DeepEqual(got.Outputs, want.Outputs) || got.Accepted != want.Accepted || got.Sampled != want.Sampled {
				t.Errorf("%s workers=%d: Run released %v (%d/%d), RunPlan %v (%d/%d)", q.Name, workers,
					got.Outputs, got.Accepted, got.Sampled, want.Outputs, want.Accepted, want.Sampled)
			}
			if ran.Metrics != planned.Metrics {
				t.Errorf("%s workers=%d: metrics differ:\nRun:     %+v\nRunPlan: %+v", q.Name, workers, ran.Metrics, planned.Metrics)
			}
			if !reflect.DeepEqual(got.Plan.Choices, want.Plan.Choices) || got.Plan.String() != res.Plan.String() {
				t.Errorf("%s workers=%d: Run executed %v, the own-shape plan is %v", q.Name, workers, got.Plan.Choices, res.Plan.Choices)
			}
			if want.Plan != res.Plan {
				t.Errorf("%s workers=%d: RunPlan reports a plan other than the one it was given", q.Name, workers)
			}
		}
	}
}

// TestPricedOnlyPlanRefused: pricing the whole design space for top1 at
// 2048×16 picks an FHE scan the runtime has no code path for; RunPlan says so
// instead of running the MPC exponentiate variant in its place.
func TestPricedOnlyPlanRefused(t *testing.T) {
	d := smallDeployment(t, 64, 8)
	req := d.PlanRequest(queries.Top1.Source)
	req.N, req.Categories, req.ExecutableOnly = 2048, 16, false
	res, err := planner.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan.Choices["em"], "fhe-scan") || res.Plan.Executable {
		t.Fatalf("full-space top1 at 2048x16 chose %v (executable %v); this test needs a priced-only plan",
			res.Plan.Choices, res.Plan.Executable)
	}
	if _, err := d.RunPlan(res.Plan, queries.Top1.Source, RunOptions{}); !errors.Is(err, ErrPlanNotExecutable) {
		t.Fatalf("RunPlan(priced-only plan) = %v, want ErrPlanNotExecutable", err)
	}
	untouched(t, d, 10)
	if _, err := d.RunPlan(nil, queries.Top1.Source, RunOptions{}); !errors.Is(err, ErrPlanNotExecutable) {
		t.Fatalf("RunPlan(nil) = %v, want ErrPlanNotExecutable", err)
	}
}

// manyMechanisms is a certified query with the given number of em/max pairs,
// each em's winner released.
func manyMechanisms(pairs int) string {
	var sb strings.Builder
	sb.WriteString("aggr = sum(db);\n")
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&sb, "r%d = em(aggr, 0.5);\nm%d = max(aggr);\noutput(r%d);\n", i, i, i)
	}
	return sb.String()
}

// TestManyMechanismsRun: a query's plan search does not grow with the number
// of mechanism calls in it — planning for execution makes one choice per step
// kind — so four em/max pairs plan in the few hundred prefixes one pair
// takes, and run end to end under one em variant, each call charged.
func TestManyMechanismsRun(t *testing.T) {
	const pairs = 4
	d := smallDeployment(t, 64, 8, func(c *Config) {
		c.Seed, c.KeyBits, c.Data = 3, 256, skewedData(5, 8)
	})
	one, err := planner.Plan(d.PlanRequest(manyMechanisms(1)))
	if err != nil {
		t.Fatal(err)
	}
	many, err := planner.Plan(d.PlanRequest(manyMechanisms(pairs)))
	if err != nil {
		t.Fatal(err)
	}
	if got, base := many.Stats.PrefixesExplored, one.Stats.PrefixesExplored; got > 4*base {
		t.Errorf("%d em/max pairs searched %d prefixes, one pair %d: the search grows with the program", pairs, got, base)
	}
	res, err := d.Run(manyMechanisms(pairs), RunOptions{})
	if err != nil {
		t.Fatalf("Run of %d em/max pairs: %v", pairs, err)
	}
	if len(res.Outputs) != pairs {
		t.Fatalf("released %v, want %d winners", res.Outputs, pairs)
	}
	for i, o := range res.Outputs {
		if o.Int() != 5 {
			t.Errorf("em call %d released %d, want the mode 5", i, o.Int())
		}
	}
	if !strings.HasPrefix(res.Plan.Choices["em"], "gumbel-") || res.Plan.EMVariant != mechanism.EMGumbel {
		t.Errorf("ran under %v (variant %v), want one Gumbel choice for every em call", res.Plan.Choices, res.Plan.EMVariant)
	}
	if left, _ := d.Budget.Remaining(); math.Abs(left-(10-0.5*pairs)) > 1e-9 {
		t.Errorf("ε left %g, want %g", left, 10-0.5*pairs)
	}
}

// TestPlanSearchCapped: the cap is a backstop no known query meets, so the
// test lowers it below the 422 prefixes its query searches: Run refuses to
// search past it, typed, before the budget is charged.
func TestPlanSearchCapped(t *testing.T) {
	defer func(was int64) { planSearchCap = was }(planSearchCap)
	planSearchCap = 300
	d := smallDeployment(t, 64, 8)
	_, err := d.Run(manyMechanisms(1), RunOptions{})
	if !errors.Is(err, ErrPlanSearchExceeded) || !errors.Is(err, planner.ErrNodeCap) {
		t.Fatalf("Run = %v, want ErrPlanSearchExceeded wrapping planner.ErrNodeCap", err)
	}
	untouched(t, d, 10)
}

// TestTopKCountEvaluated: topk releases the k the program computes — the
// certificate's K is its bound, charged in full — so a loop-variable k runs
// exactly like the unrolled literals.
func TestTopKCountEvaluated(t *testing.T) {
	deploy := func() *Deployment {
		return smallDeployment(t, 64, 8, func(c *Config) {
			c.Seed, c.KeyBits, c.BudgetEpsilon, c.Data = 3, 256, 100, skewedData(5, 8)
		})
	}
	loop, unrolled := deploy(), deploy()
	got, err := loop.Run(`aggr = sum(db);
for i = 1 to 2 do
  best = topk(aggr, i, 3.0);
  output(best[i - 1]);
endfor;`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := unrolled.Run(`aggr = sum(db);
b1 = topk(aggr, 1, 3.0);
output(b1[0]);
b2 = topk(aggr, 2, 3.0);
output(b2[1]);`, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || loop.Metrics.MPCComparisons != unrolled.Metrics.MPCComparisons {
		t.Errorf("loop-variable k released %v in %d comparisons, literal k %v in %d",
			got.Outputs, loop.Metrics.MPCComparisons, want.Outputs, unrolled.Metrics.MPCComparisons)
	}
	// The charge is the bound: both calls of the loop at k = 2 (k·ε each).
	if l, _ := loop.Budget.Remaining(); math.Abs(100-l-12) > 1e-9 {
		t.Errorf("loop charged %g, want 12 (two calls at the bound k = 2)", 100-l)
	}
}

// TestNonPositiveEpsilonRefused: an explicit ε ≤ 0 used to be charged at the
// default 0.1 (the certifier's reading) and executed at the literal (the
// interpreter's) — releasing the count plus noise of scale sens/0. There is
// one reading now, and it refuses the query.
func TestNonPositiveEpsilonRefused(t *testing.T) {
	for _, src := range []string{
		"hist = sum(db); output(declassify(laplace(hist[0], 0)));",
		"hist = sum(db); output(em(hist, 0));",
	} {
		d := smallDeployment(t, 64, 4, func(c *Config) {
			c.Seed = 3
			c.Data = func(i int) int { return i % 4 }
		})
		_, err := d.Run(src, RunOptions{})
		if err == nil || !strings.Contains(err.Error(), "certification:") {
			t.Fatalf("Run(%q) = %v, want a certification refusal", src, err)
		}
		untouched(t, d, 10)
	}
}

// TestCertificateCommitsToPlan: the signed authorization names the plan that
// runs, not just the query — two em variants of one query sign different
// digests, and one's digest does not verify under the other's signatures.
func TestCertificateCommitsToPlan(t *testing.T) {
	src := "aggr = sum(db);\nresult = em(aggr, 2.0);\noutput(result);"
	d := smallDeployment(t, 64, 8, func(c *Config) { c.BudgetEpsilon = 100 })
	gum, err := runWith(t, d, src, map[string]string{"em": "gumbel"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := runWith(t, d, src, map[string]string{"em": "exponentiate-mpc"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gum.Auth.PlanDigest == exp.Auth.PlanDigest {
		t.Fatal("gumbel and exponentiate runs of one query signed the same plan digest")
	}
	for name, res := range map[string]*Result{"gumbel": gum, "exponentiate": exp} {
		if err := d.VerifyCertificate(res.Auth); err != nil {
			t.Errorf("%s certificate does not verify: %v", name, err)
		}
	}
	swapped := *gum.Auth
	swapped.PlanDigest = exp.Auth.PlanDigest
	if err := d.VerifyCertificate(&swapped); err == nil {
		t.Error("certificate with another plan's digest verified")
	}
	// The other typed choice is committed to as well.
	tree, err := runWith(t, d, src, map[string]string{"em": "gumbel"}, withFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Auth.PlanDigest == gum.Auth.PlanDigest {
		t.Errorf("sum fanouts %d and %d signed the same plan digest", gum.Plan.SumFanout, tree.Plan.SumFanout)
	}
}
