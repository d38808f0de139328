package arboretum

import (
	"strings"
	"testing"

	"arboretum/internal/mechanism"
)

func TestPlanFacade(t *testing.T) {
	res, err := Plan(PlanRequest{
		Name:       "top1",
		Source:     "aggr = sum(db);\nresult = em(aggr, 0.1);\noutput(result);",
		N:          1 << 30,
		Categories: 1 << 15,
		Goal:       MinimizeExpectedDeviceCPU,
		Limits:     DefaultLimits(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 0.1 {
		t.Errorf("ε = %g", res.Epsilon)
	}
	if res.CommitteeSize < 20 || res.CommitteeSize > 150 {
		t.Errorf("committee size = %d", res.CommitteeSize)
	}
	if !strings.Contains(res.Summary, "vignette") {
		t.Error("summary missing vignettes")
	}
	if res.DeviceExpectedCPU <= 0 || res.PrefixesExplored <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

// TestPlanFacadeRing plans against a natively calibrated ring model: the
// request must succeed end to end and an unknown ring name must error before
// any planning work happens.
func TestPlanFacadeRing(t *testing.T) {
	res, err := Plan(PlanRequest{
		Name:       "top1-ring",
		Source:     "aggr = sum(db);\nresult = em(aggr, 0.1);\noutput(result);",
		N:          1 << 20,
		Categories: 1 << 10,
		Goal:       MinimizeExpectedDeviceCPU,
		Limits:     DefaultLimits(),
		Ring:       "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceExpectedCPU <= 0 || res.Epsilon != 0.1 {
		t.Errorf("degenerate ring-calibrated result: %+v", res)
	}
	if _, err := Plan(PlanRequest{
		Source: "aggr = sum(db);\nresult = em(aggr, 0.1);\noutput(result);",
		N:      100, Goal: MinimizeExpectedDeviceCPU, Ring: "bogus",
	}); err == nil {
		t.Error("bogus ring name accepted")
	}
}

func TestPlanFacadeErrors(t *testing.T) {
	if _, err := Plan(PlanRequest{Source: "output(1);", N: 100, Goal: "bogus"}); err == nil {
		t.Error("bogus goal accepted")
	}
	if _, err := Plan(PlanRequest{Source: "output(db[0][0]);", N: 100, Categories: 2}); err == nil {
		t.Error("non-private query accepted")
	}
}

func TestDeploymentFacade(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Devices: 64, Categories: 4, Seed: 7,
		Data: func(i int) int {
			if i%3 == 0 {
				return 1
			}
			return 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run("aggr = sum(db);\nresult = em(aggr, 3.0);\noutput(result);")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || int(res.Outputs[0]) != 2 {
		t.Errorf("outputs = %v, want the mode (2)", res.Outputs)
	}
	if res.AcceptedInputs != 64 {
		t.Errorf("accepted = %d", res.AcceptedInputs)
	}
	eps, _ := d.RemainingBudget()
	if eps >= 10 {
		t.Error("budget not charged")
	}
}

func TestEvaluationQueries(t *testing.T) {
	qs := EvaluationQueries()
	if len(qs) != 10 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if q.Name == "" || q.Source == "" || q.Lines <= 0 {
			t.Errorf("incomplete query info: %+v", q)
		}
	}
}

func TestEnergyGoal(t *testing.T) {
	res, err := Plan(PlanRequest{
		Name:       "top1-energy",
		Source:     "aggr = sum(db);\nresult = em(aggr, 0.1);\noutput(result);",
		N:          1 << 28,
		Categories: 1 << 15,
		Goal:       MinimizeExpectedDeviceEnergy,
		Limits:     DefaultLimits(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceExpectedCPU <= 0 {
		t.Errorf("degenerate energy-goal plan: %+v", res)
	}
}

func TestRunWithExponentiateEM(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Devices: 64, Categories: 4, Seed: 9, BudgetEpsilon: 100,
		Data: func(i int) int {
			if i%2 == 0 {
				return 1
			}
			return i % 4
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The exponentiation-based em variant (Figure 4, left) is a plan choice
	// like any other: pin it, plan, run the plan.
	src := "aggr = sum(db);\nresult = em(aggr, 3.0);\noutput(result);"
	p, err := Plan(PlanRequest{
		Source: src, N: 64, Categories: 4, Limits: DefaultLimits(),
		ForceChoices: map[string]string{"em": "exponentiate-mpc"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunPlanned(p, src)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Outputs[0]) != 1 {
		t.Errorf("exponentiate-variant top1 = %v, want 1", res.Outputs[0])
	}
	if !strings.HasPrefix(res.Choices["em"], "exponentiate-mpc") {
		t.Errorf("executed choices %v, want the pinned exponentiate-mpc em", res.Choices)
	}
	// Left to itself, Run plans at the deployment's own shape and gets Gumbel.
	res, err = d.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Choices["em"], "gumbel") {
		t.Errorf("Run executed choices %v, want a gumbel em", res.Choices)
	}
}

func TestRunPlanned(t *testing.T) {
	src := "aggr = sum(db);\nresult = em(aggr, 3.0);\noutput(result);"
	// Force the device-tree + exponentiate plan, then execute with the
	// plan's structure.
	p, err := Plan(PlanRequest{
		Name: "planned", Source: src, N: 1 << 26, Categories: 8,
		Limits: DefaultLimits(),
		ForceChoices: map[string]string{
			"sum": "device-tree-fanout-8",
			"em":  "exponentiate-mpc",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The plan's choices reach the runtime typed, not parsed from labels.
	if got := p.plan; got.EMVariant != mechanism.EMExponentiate || got.SumFanout != 8 || !got.Executable {
		t.Errorf("forced plan runs as %v / fanout %d / executable %v, want exponentiate / 8 / true (choices %v)",
			got.EMVariant, got.SumFanout, got.Executable, p.Choices)
	}
	gum, err := Plan(PlanRequest{
		Name: "planned", Source: src, N: 1 << 26, Categories: 8,
		Limits:       DefaultLimits(),
		ForceChoices: map[string]string{"sum": "aggregator-loop", "em": "gumbel"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := gum.plan; got.EMVariant != mechanism.EMGumbel || got.SumFanout != 0 || !got.Executable {
		t.Errorf("gumbel/loop plan runs as %v / fanout %d / executable %v (choices %v)",
			got.EMVariant, got.SumFanout, got.Executable, gum.Choices)
	}
	// Only the em step steers the runtime's em: a top-k plan names an em
	// variant in its peel-… label, but there is no em step to set one, so
	// the variant stays at its zero value whichever family is forced. The
	// runtime's top-k peels with Gumbel rounds only, so only that family is
	// executable.
	topkSrc := "aggr = sum(db);\nbest = topk(aggr, 3, 0.1);\noutput(declassify(best[0]));"
	for _, family := range []string{"peel-gumbel", "peel-exponentiate"} {
		tk, err := Plan(PlanRequest{
			Name: "topk", Source: topkSrc, N: 1 << 26, Categories: 8,
			Limits:       DefaultLimits(),
			ForceChoices: map[string]string{"topk": family},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(tk.Choices["topk"], family) || tk.Choices["em"] != "" {
			t.Fatalf("topk plan choices %v, want only a %s… topk label", tk.Choices, family)
		}
		if got := tk.plan.EMVariant; got != 0 {
			t.Errorf("%s top-k plan set the em variant to %v", family, got)
		}
		if got, want := tk.plan.Executable, family == "peel-gumbel"; got != want {
			t.Errorf("%s top-k plan executable = %v, want %v", family, got, want)
		}
	}
	d, err := NewDeployment(DeploymentConfig{
		Devices: 64, Categories: 8, Seed: 4, BudgetEpsilon: 100,
		Data: func(i int) int {
			if i%2 == 0 {
				return 6
			}
			return i % 8
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunPlanned(p, src)
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Outputs[0]) != 6 {
		t.Errorf("planned run top1 = %v, want 6", res.Outputs[0])
	}
	if got := res.Choices; got["sum"] != "device-tree-fanout-8" || !strings.HasPrefix(got["em"], "exponentiate-mpc") {
		t.Errorf("planned run executed choices %v, want the plan's", got)
	}
	if _, err := d.RunPlanned(nil, src); err == nil {
		t.Error("nil plan accepted")
	}
}
