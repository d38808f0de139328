package planner

// The search pinned to an earlier commit's plans and counts, and its
// go test -bench handle.

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"arboretum/internal/costmodel"
	"arboretum/internal/queries"
)

// TestSearchStatsMatchParent pins the search to the sequential DFS of an
// earlier commit, with the default Request, as every caller plans: the ten
// evaluation queries at N = 2^30 minimizing expected participant CPU, plus
// gap under all six goals, must render the same plan (first 16 hex digits of
// sha256(Plan.String())), cost the same vector and score as many complete
// plans as that DFS did. The table was printed by a throwaway test running
// these same requests in a clone of that commit. The prefixes visited and
// pruned are the look-ahead's (frameStack.floor), which cuts earlier than
// that DFS's bound on the partial cost alone.
func TestSearchStatsMatchParent(t *testing.T) {
	byName := map[string]queries.Query{}
	for _, q := range queries.All {
		byName[q.Name] = q
	}
	for _, want := range []struct {
		query  string
		goal   costmodel.Metric
		digest string
		cost   costmodel.Vector
		stats  Stats
	}{
		{"top1", costmodel.PartExpCPU, "7a499c4599224969",
			costmodel.Vector{AggCPU: 1.93277823295296e+07, AggBytes: 7.607682066958e+12, PartExpCPU: 14.001045508776977, PartExpBytes: 2.2011092060494553e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 106, FullCandidates: 1, Pruned: 101}},
		{"topK", costmodel.PartExpCPU, "f947ef1647960c6a",
			costmodel.Vector{AggCPU: 1.93277823295296e+07, AggBytes: 9.283362169054e+12, PartExpCPU: 42.001688932632284, PartExpBytes: 6.603709804756371e+06, PartMaxCPU: 884.0008, PartMaxBytes: 5.89101688e+08},
			Stats{PrefixesExplored: 119, FullCandidates: 1, Pruned: 114}},
		{"gap", costmodel.PartExpCPU, "20818c3af24d9d2b",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.001380268735064, PartExpBytes: 2.2019096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 134, FullCandidates: 1, Pruned: 125}},
		{"auction", costmodel.PartExpCPU, "b678225e9e4271f4",
			costmodel.Vector{AggCPU: 1.93277823295296e+07, AggBytes: 7.617992360974e+12, PartExpCPU: 14.001048014675453, PartExpBytes: 2.2011188082590234e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 471, FullCandidates: 2, Pruned: 459}},
		{"hypotest", costmodel.PartExpCPU, "1f2153073f59baaa",
			costmodel.Vector{AggCPU: 1.9327782331129596e+07, AggBytes: 6.990762213014e+12, PartExpCPU: 7.0008232746116805, PartExpBytes: 1.1002746546627488e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 25, FullCandidates: 2, Pruned: 13}},
		{"secrecy", costmodel.PartExpCPU, "f6eb39ad389d9608",
			costmodel.Vector{AggCPU: 1.9327782331929594e+07, AggBytes: 6.991056845938e+12, PartExpCPU: 7.000823384103549, PartExpBytes: 1.1002749290610421e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 28, FullCandidates: 2, Pruned: 13}},
		{"median", costmodel.PartExpCPU, "8ae4217b5a8e2073",
			costmodel.Vector{AggCPU: 1.93277823295296e+07, AggBytes: 8.342593160974e+12, PartExpCPU: 14.001274470006303, PartExpBytes: 2.201793645341648e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 201, FullCandidates: 1, Pruned: 194}},
		{"cms", costmodel.PartExpCPU, "e2bded023e4c772e",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 6.990455177196e+12, PartExpCPU: 7.000823026080801, PartExpBytes: 1.1002743687133603e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 19, FullCandidates: 1, Pruned: 13}},
		{"bayes", costmodel.PartExpCPU, "7abe15180819ed5c",
			costmodel.Vector{AggCPU: 1.9327783242329597e+07, AggBytes: 6.991260597908e+12, PartExpCPU: 7.000823373138159, PartExpBytes: 1.1002751188198514e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 27, FullCandidates: 1, Pruned: 20}},
		{"k-medians", costmodel.PartExpCPU, "830da8fd1236a66d",
			costmodel.Vector{AggCPU: 1.9327782962329596e+07, AggBytes: 6.991043752612e+12, PartExpCPU: 7.000823392044007, PartExpBytes: 1.100274916866932e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 23, FullCandidates: 1, Pruned: 16}},
		{"gap", costmodel.AggCPU, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 5929, FullCandidates: 502, Pruned: 3524}},
		{"gap", costmodel.AggBytes, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 1349, FullCandidates: 3, Pruned: 1315}},
		{"gap", costmodel.PartExpCPU, "20818c3af24d9d2b",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.001380268735064, PartExpBytes: 2.2019096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 134, FullCandidates: 1, Pruned: 125}},
		{"gap", costmodel.PartExpBytes, "20818c3af24d9d2b",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.001380268735064, PartExpBytes: 2.2019096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 134, FullCandidates: 1, Pruned: 125}},
		{"gap", costmodel.PartMaxCPU, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 8423, FullCandidates: 884, Pruned: 4426}},
		{"gap", costmodel.PartMaxBytes, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 8700, FullCandidates: 904, Pruned: 4614}},
	} {
		q := byName[want.query]
		res, err := Plan(Request{
			Name: q.Name, Source: q.Source, N: 1 << 30, Categories: q.Categories,
			Goal: want.goal, Limits: DefaultLimits,
		})
		if err != nil {
			t.Fatalf("%s/%v: %v", want.query, want.goal, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Plan.String())))[:16]; got != want.digest {
			t.Errorf("%s/%v: plan digest %s, want %s:\n%s", want.query, want.goal, got, want.digest, res.Plan)
		}
		if res.Plan.Cost != want.cost {
			t.Errorf("%s/%v: cost %+v, want %+v", want.query, want.goal, res.Plan.Cost, want.cost)
		}
		if res.Stats != want.stats {
			t.Errorf("%s/%v: stats %+v, want %+v", want.query, want.goal, res.Stats, want.stats)
		}
	}
}

// TestPlansMatchParent: the look-ahead cuts only subtrees that cannot win, so
// every plan is the one the search chose before it, byte for byte. It plans
// 480 requests — the ten evaluation queries under the six goals at N = 2^30,
// 2^20, 2048 and 96, each over the full space and for execution — and hashes
// every plan's rendering and cost vector, or its error, in order. The digest
// was printed by this same test in a clone of the commit before the
// look-ahead.
func TestPlansMatchParent(t *testing.T) {
	const want = "2f16a2570be417e5e2c8ad746515828ba04cab15c2b698fed1f3686a15d5d085"
	h := sha256.New()
	for _, q := range queries.All {
		for _, goal := range sixGoals {
			for _, n := range []int64{1 << 30, 1 << 20, 2048, 96} {
				for _, exec := range []bool{false, true} {
					res, err := Plan(Request{
						Name: q.Name, Source: q.Source, N: n, Categories: q.Categories,
						ElemRange: q.ElemRange, Goal: goal, Limits: DefaultLimits, ExecutableOnly: exec,
					})
					if err != nil {
						fmt.Fprintf(h, "%s %v N=%d exec=%v: %v\n", q.Name, goal, n, exec, err)
						continue
					}
					fmt.Fprintf(h, "%s\n%+v\n", res.Plan, res.Plan.Cost)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("the 480 plans hash to %s, want %s", got, want)
	}
}

// TestPlanFieldsMatchParent pins what Plan.String() leaves out: the labels
// (Choices), the typed choices (EMVariant, SumFanout, Executable), the
// committee count and size, the per-role costs, the breakdown fields and
// every vignette's Work. It plans TestPlansMatchParent's 480 requests, and
// then the ForceChoices pins internal/eval plans with — "sum: device-tree"
// (the ablations) and "em: gumbel" and "em: exponentiate-mpc" (the accuracy
// runs) — for the ten queries at the same four N, over the full space and
// for execution. The digest was printed by this same test in a clone of the
// commit before the vignette pool.
func TestPlanFieldsMatchParent(t *testing.T) {
	const want = "7b2da49f87bf514fbf54f4352e8dffe616af2ee1395ca7dadff88f1689e73d22"
	h := sha256.New()
	record := func(req Request) {
		res, err := Plan(req)
		if err != nil {
			fmt.Fprintf(h, "%s %v N=%d exec=%v %v: %v\n", req.Name, req.Goal, req.N, req.ExecutableOnly, req.ForceChoices, err)
			return
		}
		p := res.Plan
		fmt.Fprintf(h, "%v %v %d %v %d %d %+v %v %v %v %v %v\n", p.Choices, p.EMVariant, p.SumFanout, p.Executable,
			p.CommitteeCount, p.CommitteeSize, p.ByRole, p.BaseCPU, p.BaseBytes, p.AggOpsCPU, p.AggVerifyCPU, p.AggForwardBytes)
		for _, v := range p.Vignettes {
			fmt.Fprintf(h, "%d %v %+v\n", v.Count, v.Parallel, v.Work)
		}
	}
	shapes := []int64{1 << 30, 1 << 20, 2048, 96}
	for _, q := range queries.All {
		for _, goal := range sixGoals {
			for _, n := range shapes {
				for _, exec := range []bool{false, true} {
					record(Request{
						Name: q.Name, Source: q.Source, N: n, Categories: q.Categories,
						ElemRange: q.ElemRange, Goal: goal, Limits: DefaultLimits, ExecutableOnly: exec,
					})
				}
			}
		}
	}
	for _, force := range [][2]string{{"sum", "device-tree"}, {"em", "gumbel"}, {"em", "exponentiate-mpc"}} {
		for _, q := range queries.All {
			for _, n := range shapes {
				for _, exec := range []bool{false, true} {
					record(Request{
						Name: q.Name, Source: q.Source, N: n, Categories: q.Categories,
						ElemRange: q.ElemRange, Goal: costmodel.PartExpCPU, Limits: DefaultLimits,
						ExecutableOnly: exec, ForceChoices: map[string]string{force[0]: force[1]},
					})
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("the plans' fields hash to %s, want %s", got, want)
	}
}

// BenchmarkSearch plans gap — the largest option tree among the evaluation
// queries, 210,574 leaves — with branch-and-bound on and off (the whole tree
// walked).
func BenchmarkSearch(b *testing.B) {
	for _, mode := range []struct {
		name string
		noBB bool
	}{{"prune", false}, {"exhaustive", true}} {
		req := Request{
			Name: "gap", Source: queries.Gap.Source, N: 1 << 30,
			Categories:            queries.Gap.Categories,
			Goal:                  costmodel.PartExpCPU,
			Limits:                DefaultLimits,
			DisableBranchAndBound: mode.noBB,
		}
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Plan(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
