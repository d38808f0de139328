//go:build !race

package planner

// Allocation-regression gate for the branch-and-bound's unit of work: the
// search scores every prefix it visits, so pricing a vignette list and sizing
// its committees must not touch the heap. Excluded under -race like the
// kernel gates (the race runtime allocates shadow state of its own);
// scripts/check.sh runs it in the plain pass.

import "testing"

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
