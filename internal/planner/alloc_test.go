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
)

func TestAllocGateScore(t *testing.T) {
	sc, vs := gapFullPlan(t)
	if got := testing.AllocsPerRun(100, func() { sc.score(vs) }); got != 0 {
		t.Errorf("score over gap's full plan (%d vignettes): %.1f allocs/op, want 0", len(vs), got)
	}
	committeeSize(900) // warm the bucket
	if got := testing.AllocsPerRun(100, func() { committeeSize(900) }); got != 0 {
		t.Errorf("committeeSize on a warm bucket: %.1f allocs/op, want 0", got)
	}
}

// TestAllocGateSearchNode: what a search allocates is set by the option tree
// — the option lists, the frame stack, the priced table — never by how many
// nodes it visits or how often the incumbent improves.
func TestAllocGateSearchNode(t *testing.T) {
	steps, sp, sc := gapSearch(t)
	cfg := searchConfig{goal: costmodel.PartMaxBytes, limits: DefaultLimits, workers: 1}
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
	// The exhaustive walk prices a few more (option, m) pairs — a handful of
	// table growths — and skips the ordering prologue.
	if allocs[1] > allocs[0]+16 {
		t.Errorf("search allocations grow with the nodes visited: %.0f over %d prefixes, %.0f over %d",
			allocs[0], visited[0], allocs[1], visited[1])
	}

	var opts [][]option
	for _, st := range steps {
		opts = append(opts, sp.optionsFor(st))
	}
	fs := newFrameStack(sc, opts)
	walk := func() {
		for d := range opts {
			fs.push(d, len(opts[d])-1)
			scoreSink = fs.frames[d+1].finish()
		}
		// Returning is free: the sibling's push overwrites the frame.
		fs.push(len(opts)-1, 0)
		scoreSink = fs.frames[len(opts)].finish()
	}
	walk() // warm: prices these options at the committee sizes they meet
	if got := testing.AllocsPerRun(100, walk); got != 0 {
		t.Errorf("push + finish down a warm frame stack: %.1f allocs/op, want 0", got)
	}
}
