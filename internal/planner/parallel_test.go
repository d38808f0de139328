package planner

// Worker-count determinism for the search: the plan picked at N workers must
// be the plan picked at 1 worker — same choices, same cost vector, same
// committee sizing, same rendered summary. The parallel search earns this
// with strict-dominance-only pruning against the shared bound and an ordered
// reduction over subtree tasks (see search).

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"arboretum/internal/costmodel"
	"arboretum/internal/queries"
)

func planWithWorkers(t *testing.T, q queries.Query, n int64, workers int, noBB bool) *Result {
	t.Helper()
	res, err := Plan(Request{
		Name:       q.Name,
		Source:     q.Source,
		N:          n,
		Categories: q.Categories,
		Goal:       costmodel.PartExpCPU,
		Limits:     DefaultLimits,

		DisableBranchAndBound: noBB,
		Workers:               workers,
	})
	if err != nil {
		t.Fatalf("Plan(%s, workers=%d): %v", q.Name, workers, err)
	}
	return res
}

// TestSearchDeterministicAcrossWorkers plans every evaluation query at 1 and
// 8 workers and demands identical outcomes.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	for _, q := range queries.All {
		seq := planWithWorkers(t, q, 1<<20, 1, false)
		par := planWithWorkers(t, q, 1<<20, 8, false)
		if !reflect.DeepEqual(seq.Plan.Choices, par.Plan.Choices) {
			t.Errorf("%s: choices differ: %v vs %v", q.Name, seq.Plan.Choices, par.Plan.Choices)
		}
		if seq.Plan.Cost != par.Plan.Cost {
			t.Errorf("%s: cost differs:\n1 worker: %+v\n8 workers: %+v", q.Name, seq.Plan.Cost, par.Plan.Cost)
		}
		if seq.Plan.CommitteeSize != par.Plan.CommitteeSize ||
			seq.Plan.CommitteeCount != par.Plan.CommitteeCount {
			t.Errorf("%s: committee shape differs: %d×%d vs %d×%d", q.Name,
				seq.Plan.CommitteeCount, seq.Plan.CommitteeSize,
				par.Plan.CommitteeCount, par.Plan.CommitteeSize)
		}
		if seq.Plan.String() != par.Plan.String() {
			t.Errorf("%s: summaries differ:\n%s\nvs\n%s", q.Name, seq.Plan.String(), par.Plan.String())
		}
	}
}

// TestParallelExhaustiveCountsMatch checks that with pruning disabled the
// parallel search visits exactly the nodes the sequential search visits:
// shallow nodes are counted once at task generation, deeper nodes inside
// their subtree task.
func TestParallelExhaustiveCountsMatch(t *testing.T) {
	seq := planWithWorkers(t, queries.CMS, 1<<20, 1, true)
	par := planWithWorkers(t, queries.CMS, 1<<20, 8, true)
	if seq.Stats.PrefixesExplored != par.Stats.PrefixesExplored {
		t.Errorf("exhaustive node counts differ: %d sequential vs %d parallel",
			seq.Stats.PrefixesExplored, par.Stats.PrefixesExplored)
	}
	if seq.Stats.FullCandidates != par.Stats.FullCandidates {
		t.Errorf("full candidate counts differ: %d vs %d",
			seq.Stats.FullCandidates, par.Stats.FullCandidates)
	}
	if seq.Plan.Cost != par.Plan.Cost {
		t.Errorf("exhaustive cost differs: %+v vs %+v", seq.Plan.Cost, par.Plan.Cost)
	}
}

// TestParallelBranchAndBoundPrunes makes sure the shared bound actually
// bites when searching in parallel.
func TestParallelBranchAndBoundPrunes(t *testing.T) {
	res := planWithWorkers(t, queries.Median, 1<<20, 8, false)
	if res.Stats.Pruned == 0 {
		t.Error("parallel branch-and-bound never pruned")
	}
	if res.Stats.FullCandidates == 0 {
		t.Error("no full candidates scored")
	}
}

// TestParallelNodeCapAborts mirrors TestNodeCapAborts on the parallel path:
// the shared node counter must stop a capped exhaustive search. Pool tasks
// add to it in batches, so the search may run past the cap — by fewer than
// workers×nodeBatch nodes.
func TestParallelNodeCapAborts(t *testing.T) {
	const workers = 8
	res, err := Plan(Request{
		Name: "median", Source: queries.Median.Source, N: 1 << 30,
		Categories:            queries.Median.Categories,
		Goal:                  costmodel.PartExpCPU,
		Limits:                DefaultLimits,
		DisableBranchAndBound: true,
		NodeCap:               1000,
		Workers:               workers,
	})
	if !errors.Is(err, ErrNodeCap) {
		t.Fatalf("capped parallel exhaustive search: %v, want ErrNodeCap", err)
	}
	if n := res.Stats.PrefixesExplored; !res.Stats.Aborted || n <= 1000 || n > 1000+workers*nodeBatch {
		t.Errorf("stats %+v, want Aborted after 1000 < prefixes ≤ %d", res.Stats, 1000+workers*nodeBatch)
	}
}

// TestSearchStatsMatchParent pins the one-task (Workers: 1) schedule to the
// sequential search it replaced: the ten evaluation queries at N = 2^30
// minimizing expected participant CPU, plus gap under all six goals, must
// render the same plan (first 16 hex digits of sha256(Plan.String())), cost
// the same vector and visit, score and prune exactly as many prefixes as the
// parent commit's dedicated sequential DFS did. The table was printed by a
// throwaway test running these same requests in a clone of that commit.
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
			Stats{PrefixesExplored: 1263, FullCandidates: 1, Pruned: 1245}},
		{"topK", costmodel.PartExpCPU, "f947ef1647960c6a",
			costmodel.Vector{AggCPU: 1.93277823295296e+07, AggBytes: 9.283362169054e+12, PartExpCPU: 42.001688932632284, PartExpBytes: 6.603709804756371e+06, PartMaxCPU: 884.0008, PartMaxBytes: 5.89101688e+08},
			Stats{PrefixesExplored: 1445, FullCandidates: 1, Pruned: 1427}},
		{"gap", costmodel.PartExpCPU, "20818c3af24d9d2b",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.001380268735064, PartExpBytes: 2.2019096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 2305, FullCandidates: 1, Pruned: 2205}},
		{"auction", costmodel.PartExpCPU, "b678225e9e4271f4",
			costmodel.Vector{AggCPU: 1.93277823295296e+07, AggBytes: 7.617992360974e+12, PartExpCPU: 14.001048014675453, PartExpBytes: 2.2011188082590234e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 10098, FullCandidates: 2, Pruned: 9966}},
		{"hypotest", costmodel.PartExpCPU, "1f2153073f59baaa",
			costmodel.Vector{AggCPU: 1.9327782331129596e+07, AggBytes: 6.990762213014e+12, PartExpCPU: 7.0008232746116805, PartExpBytes: 1.1002746546627488e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 25, FullCandidates: 2, Pruned: 13}},
		{"secrecy", costmodel.PartExpCPU, "f6eb39ad389d9608",
			costmodel.Vector{AggCPU: 1.9327782331929594e+07, AggBytes: 6.991056845938e+12, PartExpCPU: 7.000823384103549, PartExpBytes: 1.1002749290610421e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 28, FullCandidates: 2, Pruned: 13}},
		{"median", costmodel.PartExpCPU, "8ae4217b5a8e2073",
			costmodel.Vector{AggCPU: 1.93277823295296e+07, AggBytes: 8.342593160974e+12, PartExpCPU: 14.001274470006303, PartExpBytes: 2.201793645341648e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 6331, FullCandidates: 1, Pruned: 6243}},
		{"cms", costmodel.PartExpCPU, "e2bded023e4c772e",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 6.990455177196e+12, PartExpCPU: 7.000823026080801, PartExpBytes: 1.1002743687133603e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 19, FullCandidates: 1, Pruned: 13}},
		{"bayes", costmodel.PartExpCPU, "7abe15180819ed5c",
			costmodel.Vector{AggCPU: 1.9327783242329597e+07, AggBytes: 6.991260597908e+12, PartExpCPU: 7.000823373138159, PartExpBytes: 1.1002751188198514e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 28, FullCandidates: 1, Pruned: 20}},
		{"k-medians", costmodel.PartExpCPU, "830da8fd1236a66d",
			costmodel.Vector{AggCPU: 1.9327782962329596e+07, AggBytes: 6.991043752612e+12, PartExpCPU: 7.000823392044007, PartExpBytes: 1.100274916866932e+06, PartMaxCPU: 849.0008, PartMaxBytes: 5.13600388e+08},
			Stats{PrefixesExplored: 23, FullCandidates: 1, Pruned: 16}},
		{"gap", costmodel.AggCPU, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 37221, FullCandidates: 502, Pruned: 32372}},
		{"gap", costmodel.AggBytes, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 33518, FullCandidates: 3, Pruned: 30979}},
		{"gap", costmodel.PartExpCPU, "20818c3af24d9d2b",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.001380268735064, PartExpBytes: 2.2019096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 2305, FullCandidates: 1, Pruned: 2205}},
		{"gap", costmodel.PartExpBytes, "20818c3af24d9d2b",
			costmodel.Vector{AggCPU: 1.9327782330329597e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.001380268735064, PartExpBytes: 2.2019096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 3566, FullCandidates: 1, Pruned: 3369}},
		{"gap", costmodel.PartMaxCPU, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 39722, FullCandidates: 884, Pruned: 33230}},
		{"gap", costmodel.PartMaxBytes, "07851c16e0573a27",
			costmodel.Vector{AggCPU: 1.07378477623296e+07, AggBytes: 8.467174003624e+12, PartExpCPU: 14.013380268735064, PartExpBytes: 2.7519096702927724e+06, PartMaxCPU: 856.0008, PartMaxBytes: 5.84700648e+08},
			Stats{PrefixesExplored: 39886, FullCandidates: 904, Pruned: 33306}},
	} {
		q := byName[want.query]
		res, err := Plan(Request{
			Name: q.Name, Source: q.Source, N: 1 << 30, Categories: q.Categories,
			Goal: want.goal, Limits: DefaultLimits, Workers: 1,
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

// BenchmarkSearch plans gap — the largest option tree among the evaluation
// queries, 210,574 leaves — on one task and on a pool of four, with
// branch-and-bound on (the shared bound and node counter under contention)
// and off (the whole tree walked).
func BenchmarkSearch(b *testing.B) {
	for _, mode := range []struct {
		name string
		noBB bool
	}{{"prune", false}, {"exhaustive", true}} {
		for _, workers := range []int{1, 4} {
			req := Request{
				Name: "gap", Source: queries.Gap.Source, N: 1 << 30,
				Categories:            queries.Gap.Categories,
				Goal:                  costmodel.PartExpCPU,
				Limits:                DefaultLimits,
				DisableBranchAndBound: mode.noBB,
				Workers:               workers,
			}
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Plan(req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
