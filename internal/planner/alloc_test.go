//go:build !race

package planner

// Allocation-regression gate for the branch-and-bound's unit of work: the
// search scores every prefix it visits, so pricing a vignette list and sizing
// its committees must not touch the heap. Excluded under -race like the
// kernel gates (the race runtime allocates shadow state of its own);
// scripts/check.sh runs it in the plain pass.

import (
	"testing"

	"arboretum/internal/costmodel"
	"arboretum/internal/queries"
)

func TestAllocGateScore(t *testing.T) {
	sc, vs, ids := gapFullPlan(t)
	if got := testing.AllocsPerRun(100, func() { sc.score(vs, ids) }); got != 0 {
		t.Errorf("score over gap's full plan (%d vignettes): %.1f allocs/op, want 0", len(ids), got)
	}
	committeeSize(900) // warm the bucket
	if got := testing.AllocsPerRun(100, func() { committeeSize(900) }); got != 0 {
		t.Errorf("committeeSize on a warm bucket: %.1f allocs/op, want 0", got)
	}
}

// TestAllocGateOptions: enumerating a step allocates its option list, not
// anything per option — an em step's 105 options name 38 pooled vignettes
// and carve their index lists from the pool's one index slice. Every step of
// gap and auction at N = 2^30 adds exactly vignettesFor vignettes, so the
// pool newPool sizes for a search is never regrown; and enumerated again into
// that warm pool, each step makes at most 3 allocations whatever its option
// count: the option list, and a compute step's Desc (its width rendered and
// concatenated).
func TestAllocGateOptions(t *testing.T) {
	sp := defaultSpace(testN, costmodel.Default())
	for _, q := range []queries.Query{queries.Gap, queries.Auction} {
		steps := decomposeQuery(t, q)
		p := newPool(steps...)
		for _, st := range steps {
			before := len(p.vs)
			sp.optionsFor(st, p)
			if got := len(p.vs) - before; got != vignettesFor(st) {
				t.Errorf("%s: %v step added %d vignettes, vignettesFor says %d", q.Name, st.kind, got, vignettesFor(st))
			}
		}
		if len(p.vs) != cap(p.vs) {
			t.Errorf("%s: pool holds %d vignettes in room for %d", q.Name, len(p.vs), cap(p.vs))
		}
		for _, st := range steps {
			var opts int
			allocs := testing.AllocsPerRun(20, func() {
				p.vs, p.heavy, p.ix = p.vs[:1], p.heavy[:1], p.ix[:0]
				opts = len(sp.optionsFor(st, p))
			})
			t.Logf("%s: %v step, %d options: %.0f allocs", q.Name, st.kind, opts, allocs)
			if allocs > 3 {
				t.Errorf("%s: enumerating a %v step (%d options) made %.0f allocations, want at most 3", q.Name, st.kind, opts, allocs)
			}
		}
	}
}

// TestAllocGateSearchNode: what a search allocates is set by the option tree
// — the option lists, the pool, the frame stack, the member-cost tables —
// never by how many nodes it visits or how often the incumbent improves.
func TestAllocGateSearchNode(t *testing.T) {
	steps, sp, sc := gapSearch(t)
	cfg := searchConfig{goal: costmodel.PartMaxBytes, limits: DefaultLimits}
	var visited [2]int64
	var allocs [2]float64
	for i, noBB := range []bool{false, true} {
		cfg.noBB = noBB
		allocs[i] = testing.AllocsPerRun(2, func() {
			_, stats, err := search(steps, sp, sc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			visited[i] = stats.PrefixesExplored
		})
	}
	t.Logf("gap: %d prefixes, %.0f allocs with pruning; %d prefixes, %.0f allocs without", visited[0], allocs[0], visited[1], allocs[1])
	if visited[1] < 20*visited[0] {
		t.Fatalf("the exhaustive walk visited %d prefixes, the pruned one %d: not a test of growth", visited[1], visited[0])
	}
	// The exhaustive walk meets a few more committee sizes — a priced table
	// each — and skips the ordering prologue.
	if allocs[1] > allocs[0]+16 {
		t.Errorf("search allocations grow with the nodes visited: %.0f over %d prefixes, %.0f over %d",
			allocs[0], visited[0], allocs[1], visited[1])
	}

	var opts [][]option
	p := newPool()
	for _, st := range steps {
		opts = append(opts, sp.optionsFor(st, p))
	}
	fs := newFrameStack(sc, p.vs, opts)
	walk := func() {
		for d := range opts {
			fs.push(d, len(opts[d])-1)
			scoreSink = fs.frames[d+1].finish()
		}
		// Returning is free: the sibling's push overwrites the frame.
		fs.push(len(opts)-1, 0)
		scoreSink = fs.frames[len(opts)].finish()
	}
	walk() // warm: prices the pool at the committee sizes these options meet
	if got := testing.AllocsPerRun(100, walk); got != 0 {
		t.Errorf("push + finish down a warm frame stack: %.1f allocs/op, want 0", got)
	}
}
