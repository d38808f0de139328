package planner

// The scorer's own tests: the figure breakdown the plan digest cannot see,
// the shared committee-size memo, and the go test -bench handles for the
// planner's cost per prefix and per corpus.

import (
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"arboretum/internal/costmodel"
	"arboretum/internal/plan"
	"arboretum/internal/privacy"
	"arboretum/internal/queries"
	"arboretum/internal/sortition"
	"arboretum/internal/types"
)

var sixGoals = []costmodel.Metric{
	costmodel.AggCPU, costmodel.AggBytes,
	costmodel.PartExpCPU, costmodel.PartExpBytes,
	costmodel.PartMaxCPU, costmodel.PartMaxBytes,
}

func queryByName(name string) queries.Query {
	for _, q := range queries.All {
		if q.Name == name {
			return q
		}
	}
	panic("no query " + name)
}

// TestBreakdownMatchesParent pins what Plan.String() does not render — ByRole,
// the participant base, the aggregator split and the committee size — for the
// rows of TestSearchStatsMatchParent, against the commit before the scorer's
// per-role map became an array (PR 23). The table was printed by a throwaway
// test running these same requests in a clone of that commit. ByRole must
// hold exactly that commit's keys: internal/baseline and internal/eval range
// over it, so a zero-valued extra role is a wrong answer.
func TestBreakdownMatchesParent(t *testing.T) {
	for _, want := range []struct {
		query  string
		goal   costmodel.Metric
		m      int
		byRole map[plan.Role]plan.RoleCost

		baseCPU, baseBytes, aggOpsCPU, aggVerifyCPU, aggForwardBytes float64
	}{
		{"top1", costmodel.PartExpCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.5, Bytes: 1.0015536e+07, Count: 32}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 292}},
			14.0008, 2.20052e+06, 8.589934592e+06, 1.07378477375296e+07, 6.32655178254e+11},
		{"topK", costmodel.PartExpCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.5, Bytes: 1.0015536e+07, Count: 32}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 1328}},
			42.0008, 6.60156e+06, 8.589934592e+06, 1.07378477375296e+07, 2.30833528035e+12},
		{"gap", costmodel.PartExpCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 1.0115064e+07, Count: 97}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 811}},
			14.0008, 2.20052e+06, 8.589934592e+06, 1.07378477383296e+07, 1.49214711492e+12},
		{"auction", costmodel.PartExpCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.5, Bytes: 1.0015536e+07, Count: 32}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 300}},
			14.0008, 2.20052e+06, 8.589934592e+06, 1.07378477375296e+07, 6.4296547227e+11},
		{"hypotest", costmodel.PartExpCPU, 29,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.12500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 9.495064e+06, Count: 1}, plan.RoleOps: {CPU: 7.2, Bytes: 5.580064e+06, Count: 4}},
			7.0008, 1.10026e+06, 8.589934592e+06, 1.0737847739129601e+07, 1.573532431e+10},
		{"secrecy", costmodel.PartExpCPU, 29,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.12500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 9.495064e+06, Count: 1}, plan.RoleOps: {CPU: 7.202, Bytes: 5.587314e+06, Count: 6}},
			7.0008, 1.10026e+06, 8.589934592e+06, 1.0737847739929602e+07, 1.6029957234e+10},
		{"median", costmodel.PartExpCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.5, Bytes: 1.0015536e+07, Count: 32}, plan.RoleOps: {CPU: 58.202000000000005, Bytes: 1.74025536e+08, Count: 420}},
			14.0008, 2.20052e+06, 8.589934592e+06, 1.07378477375296e+07, 1.36756627227e+12},
		{"cms", costmodel.PartExpCPU, 29,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.12500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 9.495064e+06, Count: 1}, plan.RoleOps: {CPU: 2.002, Bytes: 5.007378e+06, Count: 2}},
			7.0008, 1.10026e+06, 8.589934592e+06, 1.07378477383296e+07, 1.5428288492e+10},
		{"bayes", costmodel.PartExpCPU, 29,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.12500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 9.7, Bytes: 1.8634096e+07, Count: 2}, plan.RoleOps: {CPU: 2.002, Bytes: 5.007378e+06, Count: 2}},
			7.0008, 1.10026e+06, 8.589935504e+06, 1.07378477383296e+07, 1.6233709204e+10},
		{"k-medians", costmodel.PartExpCPU, 29,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.12500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.7, Bytes: 9.930256e+06, Count: 3}, plan.RoleOps: {CPU: 2.002, Bytes: 5.007378e+06, Count: 2}},
			7.0008, 1.10026e+06, 8.589935224e+06, 1.07378477383296e+07, 1.6016863908e+10},
		{"gap", costmodel.AggCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 1.0115064e+07, Count: 97}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 811}},
			14.0008, 2.20052e+06, 0.024, 1.07378477383296e+07, 1.49214711492e+12},
		{"gap", costmodel.AggBytes, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 1.0115064e+07, Count: 97}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 811}},
			14.0008, 2.20052e+06, 0.024, 1.07378477383296e+07, 1.49214711492e+12},
		{"gap", costmodel.PartExpCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 1.0115064e+07, Count: 97}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 811}},
			14.0008, 2.20052e+06, 8.589934592e+06, 1.07378477383296e+07, 1.49214711492e+12},
		{"gap", costmodel.PartExpBytes, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 1.0115064e+07, Count: 97}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 811}},
			14.0008, 2.20052e+06, 8.589934592e+06, 1.07378477383296e+07, 1.49214711492e+12},
		{"gap", costmodel.PartMaxCPU, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 1.0115064e+07, Count: 97}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 811}},
			14.0008, 2.20052e+06, 0.024, 1.07378477383296e+07, 1.49214711492e+12},
		{"gap", costmodel.PartMaxBytes, 33,
			map[plan.Role]plan.RoleCost{plan.RoleKeyGen: {CPU: 842, Bytes: 5.82500128e+08, Count: 1}, plan.RoleDecrypt: {CPU: 6.55, Bytes: 1.0115064e+07, Count: 97}, plan.RoleOps: {CPU: 53.2, Bytes: 1.74025536e+08, Count: 811}},
			14.0008, 2.20052e+06, 0.024, 1.07378477383296e+07, 1.49214711492e+12},
	} {
		q := queryByName(want.query)
		res, err := Plan(Request{
			Name: q.Name, Source: q.Source, N: testN, Categories: q.Categories,
			Goal: want.goal, Limits: DefaultLimits,
		})
		if err != nil {
			t.Fatalf("%s/%v: %v", want.query, want.goal, err)
		}
		p := res.Plan
		if !reflect.DeepEqual(p.ByRole, want.byRole) {
			t.Errorf("%s/%v: ByRole %+v, want %+v", want.query, want.goal, p.ByRole, want.byRole)
		}
		if p.CommitteeSize != want.m {
			t.Errorf("%s/%v: committee size %d, want %d", want.query, want.goal, p.CommitteeSize, want.m)
		}
		got := [...]float64{p.BaseCPU, p.BaseBytes, p.AggOpsCPU, p.AggVerifyCPU, p.AggForwardBytes}
		if got != [...]float64{want.baseCPU, want.baseBytes, want.aggOpsCPU, want.aggVerifyCPU, want.aggForwardBytes} {
			t.Errorf("%s/%v: base cpu/bytes, agg ops/verify/forward = %v, want %+v", want.query, want.goal, got, want)
		}
	}
}

// TestSharedSizeMemo plans gap from eight goroutines at once — every search
// filling the one size table — and demands the plan of a lone call every
// time; then every filled entry must be what the solver says for its bucket,
// including the saturated last one.
func TestSharedSizeMemo(t *testing.T) {
	req := Request{
		Name: "gap", Source: queries.Gap.Source, N: testN, Categories: queries.Gap.Categories,
		Goal: costmodel.PartExpCPU, Limits: DefaultLimits,
	}
	want, err := Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := Plan(req)
				if err != nil {
					t.Errorf("goroutine %d, plan %d: %v", g, i, err)
					return
				}
				if got.Plan.String() != want.Plan.String() || got.Plan.Cost != want.Plan.Cost ||
					!reflect.DeepEqual(got.Plan.ByRole, want.Plan.ByRole) || got.Stats != want.Stats {
					t.Errorf("goroutine %d, plan %d: plan differs from the lone call's:\n%s\nvs\n%s",
						g, i, got.Plan, want.Plan)
				}
			}
		}(g)
	}
	wg.Wait()

	// The bucket past the last power of two an int holds: the solver refuses
	// it, and the memo saturates at the search cap.
	if m := committeeSize(math.MaxInt); m != sortition.DefaultSizeParams.Max {
		t.Errorf("committeeSize(MaxInt) = %d, want the cap %d", m, sortition.DefaultSizeParams.Max)
	}
	filled := 0
	for lg := range sizeTable {
		m := int(sizeTable[lg].Load())
		if m == 0 {
			continue
		}
		filled++
		direct, err := sortition.MinCommitteeSize(1<<lg, sortition.DefaultSizeParams)
		if err != nil {
			direct = sortition.DefaultSizeParams.Max
		}
		if m != direct {
			t.Errorf("sizeTable[%d] = %d, solver says %d", lg, m, direct)
		}
		// Counts round up to their bucket: 2^(lg-1)+1 … 2^lg share this one.
		if lg > 0 && lg < bits.UintSize-1 {
			if lo, hi := committeeSize(1<<(lg-1)+1), committeeSize(1<<lg); lo != m || hi != m {
				t.Errorf("committeeSize(2^%d + 1) = %d, committeeSize(2^%d) = %d, want %d", lg-1, lo, lg, hi, m)
			}
		}
	}
	if filled < 3 {
		t.Errorf("only %d table entries filled after planning gap", filled)
	}
}

// The ways a push can make its frame, as TestFrameStackMatchesScore tells
// them apart from the frames it sees.
const (
	pushExtend    = iota // same m, same size bucket: the parent frame extended
	pushCrossing         // another size bucket at the same m: extended all the same
	pushAltBuilt         // another m: the parent's prefix re-folded at it, into alt
	pushAltReused        // another m that an earlier sibling already re-folded at
	numPushKinds
)

// emQuery reports whether a query calls the exponential mechanism, whose
// options add the hundreds of committees that move m.
func emQuery(src string) bool {
	return strings.Contains(src, "em(") || strings.Contains(src, "topk(")
}

// TestFrameStackMatchesScore is the frame stack's differential check, at every
// node the real DFS visits: the frame's (Vector, breakdown, m) must equal —
// with ==, no tolerance — score over the materialised prefix. It walks the
// sixteen requests of TestSearchStatsMatchParent (fifteen distinct) and the
// corpus planned for execution at every run shape, each with pruning on and
// off (where no subtree is skipped). It also sorts every push by the path it
// took — extending the parent frame within its size bucket or across one at
// the same m, or extending alt after re-folding it or reusing a sibling's
// re-fold — and demands a bucket crossing of every walk and each path of the
// em queries: a stale or wrong-m alternate frame shows up as a mismatch.
func TestFrameStackMatchesScore(t *testing.T) {
	var reqs []Request
	for _, q := range queries.All {
		reqs = append(reqs, Request{Name: q.Name, Source: q.Source, N: testN, Categories: q.Categories,
			Goal: costmodel.PartExpCPU, Limits: DefaultLimits})
	}
	for _, g := range sixGoals {
		q := queries.Gap
		if g == costmodel.PartExpCPU {
			continue // the row above
		}
		reqs = append(reqs, Request{Name: q.Name, Source: q.Source, N: testN, Categories: q.Categories,
			Goal: g, Limits: DefaultLimits})
	}
	for _, shape := range runShapes {
		for _, q := range queries.All {
			req := forExecution(q.Source, shape[0], shape[1])
			req.Name = q.Name
			reqs = append(reqs, req)
		}
	}

	var nodes, mismatches int64
	var kinds [numPushKinds]int64
	// The m each alt[d] was last re-folded at, 0 once frames[d] changes: what
	// push must have found there, so the hook can tell a re-fold from a
	// reuse.
	var model []int
	nodeHook = func(fs *frameStack, d int) {
		nodes++
		prefix := []plan.Vignette{keygenVignette()}
		for l, j := range fs.idx[:d] {
			prefix = append(prefix, fs.opts[l][j].vignettes...)
		}
		f := &fs.frames[d]
		if model == nil {
			model = make([]int, len(fs.frames))
		}
		model[d] = 0 // the push that made frames[d] invalidated alt[d]
		if d > 0 {
			parent := &fs.frames[d-1]
			kind := pushExtend
			switch {
			case f.m != parent.m && model[d-1] == f.m:
				kind = pushAltReused
			case f.m != parent.m:
				kind, model[d-1] = pushAltBuilt, f.m
			case sizeBucket(int(f.committees)) != sizeBucket(int(parent.committees)):
				kind = pushCrossing
			}
			kinds[kind]++
		}
		v, bd, m := fs.sc.score(prefix)
		if got := f.finish(); got != v || f.bd != bd || f.m != m {
			if mismatches++; mismatches <= 5 {
				t.Errorf("prefix %v: frame (%+v, %+v, m=%d), score (%+v, %+v, m=%d)", fs.idx[:d], got, f.bd, f.m, v, bd, m)
			}
		}
	}
	defer func() { nodeHook = nil }()

	var emPushes [numPushKinds]int64 // pruned walks of the em queries at N = 2^30
	for _, req := range reqs {
		for _, noBB := range []bool{false, true} {
			if noBB && req.Name == "gap" && req.Goal != costmodel.PartExpCPU {
				continue // without pruning the goal steers nothing: one walk of gap's 859,756 prefixes
			}
			req.DisableBranchAndBound = noBB
			nodes = 0
			kinds = [numPushKinds]int64{}
			model = nil
			res, err := Plan(req)
			if err != nil {
				t.Errorf("%s N=%d %v, no pruning %v: %v", req.Name, req.N, req.Goal, noBB, err)
				continue
			}
			if nodes != res.Stats.PrefixesExplored {
				t.Errorf("%s N=%d %v, no pruning %v: hook saw %d nodes, the search explored %d", req.Name, req.N, req.Goal, noBB, nodes, res.Stats.PrefixesExplored)
			}
			if kinds[pushExtend] == nodes-1 {
				t.Errorf("%s N=%d %v, no pruning %v: no push crossed a committee-size bucket", req.Name, req.N, req.Goal, noBB)
			}
			if !noBB && req.N == testN && emQuery(req.Source) {
				for k, n := range kinds {
					emPushes[k] += n
				}
			}
		}
	}
	// A small tree can lack a kind (top1 never crosses a bucket at an
	// unchanged m), so the kinds are required of the em queries together.
	t.Logf("em queries at N = 2^30: pushes extend/crossing/alt built/alt reused %v", emPushes)
	if slices.Contains(emPushes[:], 0) {
		t.Errorf("em queries at N = 2^30: pushes extend/crossing/alt built/alt reused %v, want every kind", emPushes)
	}
	if mismatches > 0 {
		t.Errorf("%d nodes where the frame is not score(prefix)", mismatches)
	}
}

// gapSearch returns what search needs to plan gap at N = 2^30 — the largest
// option tree of the plan-corpus.
func gapSearch(tb testing.TB) ([]step, searchSpace, *scorer) {
	tb.Helper()
	q := queries.Gap
	prog, info, _, err := privacy.Admit(q.Source, types.DBInfo{N: testN, Width: q.Categories, ElemRange: q.ElemRange})
	if err != nil {
		tb.Fatal(err)
	}
	steps, err := decompose(prog, info)
	if err != nil {
		tb.Fatal(err)
	}
	model := costmodel.Default()
	return steps, defaultSpace(testN, model), newScorer(testN, model)
}

// gapFullPlan returns a scorer and the unmerged vignette list of the plan the
// sequential search picks for gap at N = 2^30: the longest list the
// plan-corpus scores.
func gapFullPlan(tb testing.TB) (*scorer, []plan.Vignette) {
	tb.Helper()
	steps, sp, sc := gapSearch(tb)
	best, _, err := search(steps, sp, sc,
		searchConfig{goal: costmodel.PartExpCPU, limits: DefaultLimits})
	if err != nil {
		tb.Fatal(err)
	}
	vs := []plan.Vignette{keygenVignette()}
	for _, o := range best.choice {
		vs = append(vs, o.vignettes...)
	}
	return sc, vs
}

// BenchmarkScore prices gap's full plan once per iteration: the planner's
// unit of work (run with -benchmem; TestAllocGateScore holds it at 0 allocs).
func BenchmarkScore(b *testing.B) {
	sc, vs := gapFullPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreSink, _, _ = sc.score(vs)
	}
}

var scoreSink costmodel.Vector // keeps BenchmarkScore's call alive

// BenchmarkPlanCorpus is one plan-corpus operation (bench/planwl.go): the ten
// evaluation queries under each of the six goals at N = 2^30.
func BenchmarkPlanCorpus(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, q := range queries.All {
			for _, g := range sixGoals {
				_, err := Plan(Request{
					Name: q.Name, Source: q.Source, N: testN, Categories: q.Categories,
					ElemRange: q.ElemRange, Goal: g, Limits: DefaultLimits,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
