package planner

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"arboretum/internal/costmodel"
	"arboretum/internal/mechanism"
	"arboretum/internal/plan"
	"arboretum/internal/privacy"
	"arboretum/internal/queries"
	"arboretum/internal/types"
)

// runShapes are deployment shapes the runtime is actually run at: the CLI and
// test default, the gateway's, the collect-wide and the committee-deep
// benchmark workloads'.
var runShapes = [][2]int64{{64, 8}, {96, 8}, {2048, 16}, {64, 32}}

// forExecution is the request runtime.Deployment.Run plans with.
func forExecution(src string, n, categories int64) Request {
	return Request{
		Source: src, N: n, Categories: categories,
		Goal: costmodel.PartExpCPU, Limits: DefaultLimits,
		NodeCap: 1 << 21, ExecutableOnly: true,
	}
}

// TestExecutableTable pins, for every option family the search space can
// emit, whether the runtime has a code path for it. A new family has to be
// entered here — that is, someone has to decide whether it runs.
func TestExecutableTable(t *testing.T) {
	want := map[string]bool{
		"input/onehot+zkp":                   true,
		"sample/bin-window":                  true,
		"sum/aggregator-loop":                true,
		"sum/device-tree-fanout-#":           true,
		"compute/aggregator-he":              true, // additions and plaintext products: AHE
		"compute/committee-slice-#":          true,
		"compare/aggregator-he":              false, // comparisons force an FHE circuit
		"compare/committee-slice-#":          true,
		"noise/committee-slice-#":            true,
		"em/gumbel-noise-#-tree-#":           true,
		"em/exponentiate-mpc-slice-#":        true,
		"em/exponentiate-fhe-scan-#":         false, // FHE exponentiation at the aggregator
		"topk/peel-gumbel-noise-#-tree-#":    true,
		"topk/peel-exponentiate-mpc-slice-#": false, // the runtime's top-k peels with Gumbel rounds
		"topk/peel-exponentiate-fhe-scan-#":  false,
		"topk/oneshot-tree-#":                false, // … and never one-shot
		"maxsel/tree-#":                      true,
		"output/committee-reconstruct":       true,
	}
	steps := map[string]step{
		"input":   {kind: stepInput, c: 64},
		"sample":  {kind: stepSample, c: 1},
		"sum":     {kind: stepSum, c: 64},
		"compute": {kind: stepCompute, c: 64, ops: opTally{adds: 64, mults: 64}},
		"compare": {kind: stepCompute, c: 64, ops: opTally{adds: 64, cmps: 64}},
		"noise":   {kind: stepNoise, c: 64},
		"em":      {kind: stepEM, c: 64},
		"topk":    {kind: stepTopK, c: 64, k: 3},
		"maxsel":  {kind: stepMaxSel, c: 64},
		"output":  {kind: stepOutput, c: 1},
	}
	digits := regexp.MustCompile(`\d+`)
	sp := defaultSpace(1<<20, costmodel.Default())
	seen := map[string]bool{}
	for name, st := range steps {
		p := newPool()
		for _, o := range sp.rawOptionsFor(st, p) {
			family := name + "/" + digits.ReplaceAllString(o.choiceVal, "#")
			exec, listed := want[family]
			if !listed {
				t.Errorf("option %s (family %s) is not in the executable table", o.choiceVal, family)
				continue
			}
			seen[family] = true
			if o.exec != exec {
				t.Errorf("%s: exec = %v, table says %v", o.choiceVal, o.exec, exec)
			}
			fhe := false
			for _, v := range o.vigs {
				fhe = fhe || p.vs[v].Crypto == plan.CryptoFHE
			}
			if fhe && o.exec {
				t.Errorf("%s has an FHE vignette and is marked executable", o.choiceVal)
			}
		}
		sp.execOnly = true
		for _, o := range sp.optionsFor(st, p) {
			if !o.exec {
				t.Errorf("%s survived the executable-only filter", o.choiceVal)
			}
		}
		sp.execOnly = false
	}
	for family := range want {
		if !seen[family] {
			t.Errorf("table row %s matches no emitted option", family)
		}
	}
}

// TestExecutablePlanning: over the corpus at every shape the runtime is run
// at, planning for execution returns an executable plan — and the flag is not
// vacuous: pricing the whole space at one of those shapes picks an FHE scan.
func TestExecutablePlanning(t *testing.T) {
	for _, shape := range runShapes {
		for _, q := range queries.All {
			res, err := Plan(forExecution(q.Source, shape[0], shape[1]))
			if err != nil {
				t.Errorf("%s at %dx%d: %v", q.Name, shape[0], shape[1], err)
				continue
			}
			if !res.Plan.Executable {
				t.Errorf("%s at %dx%d: executable-only planning chose %v", q.Name, shape[0], shape[1], res.Plan.Choices)
			}
		}
	}
	req := forExecution(queries.Top1.Source, 2048, 16)
	req.ExecutableOnly = false
	res, err := Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Executable {
		t.Errorf("full-space top1 at 2048x16 chose %v; expected a priced-only FHE scan", res.Plan.Choices)
	}
}

// emMaxPairs is a query with the given number of em and max calls.
func emMaxPairs(pairs int) string {
	var sb strings.Builder
	sb.WriteString("aggr = sum(db);\n")
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&sb, "r%d = em(aggr, 0.01);\nm%d = max(aggr);\n", i, i)
	}
	sb.WriteString("output(r0);\n")
	return sb.String()
}

// TestExecutableSearchTiesKinds: planning for execution makes one choice per
// step kind, priced over every step of the kind — so the search does not grow
// with the number of mechanism calls (a level per step multiplies by a few
// hundred options for every em/max pair), and the plan's one em label and one
// EMVariant hold for every em call of the run.
func TestExecutableSearchTiesKinds(t *testing.T) {
	for _, shape := range runShapes {
		one, err := Plan(forExecution(emMaxPairs(1), shape[0], shape[1]))
		if err != nil {
			t.Fatal(err)
		}
		ten, err := Plan(forExecution(emMaxPairs(10), shape[0], shape[1]))
		if err != nil {
			t.Fatalf("ten em/max pairs at %dx%d: %v", shape[0], shape[1], err)
		}
		if ten.Stats.PrefixesExplored > 4*one.Stats.PrefixesExplored {
			t.Errorf("%dx%d: ten pairs searched %d prefixes, one pair %d", shape[0], shape[1],
				ten.Stats.PrefixesExplored, one.Stats.PrefixesExplored)
		}
		// Every em step's vignettes are in the plan, all under the one label.
		label := ten.Plan.Choices["em"]
		var noise, tree int
		if _, err := fmt.Sscanf(label, "gumbel-noise-%d-tree-%d", &noise, &tree); err != nil {
			t.Fatalf("%dx%d: em choice %q", shape[0], shape[1], label)
		}
		var noises, trees int
		for _, v := range ten.Plan.Vignettes {
			if v.Desc == fmt.Sprintf("gumbel noise (%d scores per committee)", noise) {
				noises++
			}
			if v.Desc == fmt.Sprintf("argmax tournament (fanout %d)", tree) {
				trees++
			}
		}
		if noises != 10 || trees != 10 || !ten.Plan.Executable {
			t.Errorf("%dx%d: plan under %q has %d noise and %d tournament vignettes for ten em calls (executable %v)",
				shape[0], shape[1], label, noises, trees, ten.Plan.Executable)
		}
	}

	// The whole design space still gives every step its own choice; a plan
	// whose em steps disagree cannot be run, and says so.
	sp := defaultSpace(64, costmodel.Default())
	em := step{kind: stepEM, c: 8}
	var gumbel, exponentiate option
	p := newPool()
	for _, o := range sp.emOptions(em, 1, p) {
		switch {
		case o.exec && o.em == mechanism.EMGumbel:
			gumbel = o
		case o.exec && o.em == mechanism.EMExponentiate:
			exponentiate = o
		}
	}
	agree := assemble(Request{N: 64}, []step{em, em}, &candidate{choice: []option{gumbel, gumbel}, vs: p.vs})
	differ := assemble(Request{N: 64}, []step{em, em}, &candidate{choice: []option{gumbel, exponentiate}, vs: p.vs})
	if !agree.Executable || differ.Executable {
		t.Errorf("Executable: two Gumbel em steps %v, Gumbel + exponentiate %v; want true, false", agree.Executable, differ.Executable)
	}
}

// FuzzPlanForExecution puts arbitrary admitted programs through the planning
// Run does for them (HTTP-reachable through the gateway): it never panics,
// it is a function of its input, and it ends in an executable plan or in one
// of the planner's two refusals — ErrNodeCap (a backstop: the tree has one
// level per step kind, so it does not grow with the program) or "no plan
// satisfies the limits" (the evaluation limits on device and aggregator work,
// which hold for any plan). Pinned to its own Choices (ForceChoices), the
// search returns a plan as good as the free one and as executable; planned
// again unpinned, the free plan and its Stats come back byte for byte, so a
// pin leaves nothing behind in what the next search enumerates. When the exhaustive walk
// fits in 20,000 prefixes, the pruned plan must be as good as the walk's.
func FuzzPlanForExecution(f *testing.F) {
	for _, q := range queries.All {
		f.Add(q.Source)
	}
	f.Add("sampleUniform(0.5); sampleUniform(1); aggr = sum(db); c = laplace(aggr[0], 1.0); output(declassify(c));")
	f.Add("")
	f.Add("aggr = sum(db")
	f.Add("aggr = sum(db); if aggr[0] > 1 then output(1); endif;")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			t.Skip()
		}
		req := forExecution(src, 64, 8)
		r1, err1 := Plan(req)
		r2, err2 := Plan(req)
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("nondeterministic planning: %v vs %v", err1, err2)
		}
		if err1 != nil {
			_, _, _, admitErr := privacy.Admit(src, types.DBInfo{N: 64, Width: 8, ElemRange: types.Range{Lo: 0, Hi: 1}})
			if admitErr == nil && !errors.Is(err1, ErrNodeCap) && err1.Error() != "planner: no plan satisfies the limits" {
				t.Fatalf("admitted program refused by the planner: %v", err1)
			}
			return
		}
		if !r1.Plan.Executable {
			t.Fatalf("executable-only planning chose %v", r1.Plan.Choices)
		}
		if r1.Plan.String() != r2.Plan.String() {
			t.Fatalf("nondeterministic plan:\n%s\nvs\n%s", r1.Plan, r2.Plan)
		}
		pinned := req
		pinned.ForceChoices = r1.Plan.Choices
		rp, err := Plan(pinned)
		if err != nil {
			t.Fatalf("pinned to %v: %v", r1.Plan.Choices, err)
		}
		if betterPlan(rp.Plan.Cost, r1.Plan.Cost, req.Goal) || betterPlan(r1.Plan.Cost, rp.Plan.Cost, req.Goal) ||
			rp.Plan.Executable != r1.Plan.Executable {
			t.Fatalf("pinned to %v: %+v (executable %v), free %+v (executable %v)", r1.Plan.Choices,
				rp.Plan.Cost, rp.Plan.Executable, r1.Plan.Cost, r1.Plan.Executable)
		}
		r3, err := Plan(req)
		if err != nil {
			t.Fatalf("free plan after a pinned one: %v", err)
		}
		if r3.Plan.String() != r1.Plan.String() || r3.Stats != r1.Stats {
			t.Fatalf("free plan after a pinned one (%+v):\n%s\nwas (%+v)\n%s", r3.Stats, r3.Plan, r1.Stats, r1.Plan)
		}
		// Where the exhaustive walk is small enough to afford, it must find
		// no plan better than the pruned search's.
		req.DisableBranchAndBound, req.NodeCap = true, 20_000
		all, err := Plan(req)
		if errors.Is(err, ErrNodeCap) {
			return
		}
		if err != nil {
			t.Fatalf("exhaustive walk: %v", err)
		}
		if betterPlan(all.Plan.Cost, r1.Plan.Cost, req.Goal) || betterPlan(r1.Plan.Cost, all.Plan.Cost, req.Goal) {
			t.Fatalf("pruned %+v, exhaustive %+v", r1.Plan.Cost, all.Plan.Cost)
		}
	})
}
