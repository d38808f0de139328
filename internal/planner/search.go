package planner

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"arboretum/internal/costmodel"
	"arboretum/internal/parallel"
)

// Stats reports what the search did (Figure 9 and the branch-and-bound
// ablation of Section 7.3 read these).
type Stats struct {
	PrefixesExplored int64 // DFS nodes visited ("plan prefixes")
	FullCandidates   int64 // complete plans scored exactly
	Pruned           int64 // prefixes cut by a limit or the incumbent
	Aborted          bool  // hit the node cap
}

// searchConfig tunes the planner search.
type searchConfig struct {
	goal    costmodel.Metric
	limits  costmodel.Limits
	noBB    bool              // disable branch-and-bound (ablation, Section 7.3)
	nodeCap int64             // Request.NodeCap (0 = defaultNodeCap)
	force   map[string]string // pin steps to choice-value prefixes
	workers int               // search parallelism (0 = parallel.Workers default)
}

const defaultNodeCap = 50_000_000

// betterPlan orders candidate plans: primarily by the analyst's goal, and —
// when two plans are within rounding error on the goal — by total system
// cost, so that ties never pick a plan that wastes another entity's
// resources (e.g. an astronomically expensive FHE circuit on an unlimited
// aggregator when a committee plan costs participants the same).
func betterPlan(a, b costmodel.Vector, goal costmodel.Metric) bool {
	ga, gb := a.Get(goal), b.Get(goal)
	const relTol = 1e-6
	if gb > 0 && (gb-ga)/gb > relTol {
		return true
	}
	if ga > 0 && (ga-gb)/ga > relTol {
		return false
	}
	// Tie on the goal: prefer the plan with the smaller total footprint.
	return totalFootprint(a) < totalFootprint(b)
}

// totalFootprint is a single scalar mixing all six metrics for tie-breaking
// (seconds plus bytes at a nominal 100 MB/s).
func totalFootprint(v costmodel.Vector) float64 {
	const bytesPerSecond = 1e8
	return v.AggCPU + v.PartExpCPU + v.PartMaxCPU +
		(v.AggBytes+v.PartExpBytes+v.PartMaxBytes)/bytesPerSecond
}

// candidate is a complete plan as the search scored it: one option per step,
// the exact cost, the figure breakdowns and the committee size.
type candidate struct {
	choice []option
	cost   costmodel.Vector
	bd     breakdown
	m      int
}

// search runs DFS over the per-step options with branch-and-bound pruning
// and returns the winning candidate.
//
// There is one DFS. The option tree is cut into independent subtree tasks —
// a single task holding the whole tree on the calling goroutine, or a
// breadth-first frontier of subtrees on the worker pool — and the winner is
// chosen by an ordered reduction over per-task winners that applies the
// incumbent rule of a single task ("replace only if strictly better"), so
// the plan at N workers is the plan at 1 worker. Three properties make the
// cross-task pruning sound:
//
//   - Partial costs are admissible lower bounds: every scored quantity only
//     grows as vignettes are appended (score documents this), so goal value
//     and total footprint are monotone from prefix to full plan.
//   - The shared bound prunes only on STRICT dominance (betterPlan(bound,
//     partial)). A subtree whose prefix is already strictly beaten cannot
//     contain the winner: any full plan in it costs at least the prefix, and
//     the bound is itself a real candidate found by some task. Tied prefixes
//     are never pruned, so order-based tie-breaking survives.
//   - Each task keeps its own incumbent and prunes on it non-strictly, so
//     within a task the DFS is the whole-tree DFS restricted to a subtree.
//
// Stats are exact sums of per-task counters. With one task they repeat
// exactly; with pruning disabled PrefixesExplored is the same at every
// worker count; with pruning on a pool, the counts depend on how fast the
// shared bound tightens and may vary run to run — the chosen plan never does.
func search(steps []step, sp searchSpace, sc *scorer, cfg searchConfig) (*candidate, *Stats, error) {
	stats := &Stats{}
	stepOpts := make([][]option, len(steps))
	for i, st := range steps {
		os := sp.optionsFor(st)
		if len(os) == 0 {
			return nil, stats, fmt.Errorf("planner: no implementation for step %v", st.kind)
		}
		// Pinned steps keep only the options matching the forced prefix.
		if len(cfg.force) > 0 {
			if prefix, pinned := cfg.force[st.kind.String()]; pinned {
				kept := os[:0]
				for _, o := range os {
					if strings.HasPrefix(o.choiceVal, prefix) {
						kept = append(kept, o)
					}
				}
				if len(kept) == 0 {
					return nil, stats, fmt.Errorf("planner: no %v implementation matches forced choice %q", st.kind, prefix)
				}
				os = kept
			}
		}
		stepOpts[i] = os
	}

	// The tree has one level per step — or, planning for execution, one per
	// step kind (tieKinds): opts[l] are level l's options, levelOf[i] is the
	// level that decides step i.
	opts, levelOf := stepOpts, []int(nil)
	if sp.execOnly {
		var err error
		if opts, levelOf, err = tieKinds(steps, stepOpts); err != nil {
			return nil, stats, err
		}
	}
	if !cfg.noBB {
		// Heuristic order: score each option in isolation and try the
		// cheapest first, so a good incumbent appears early and the
		// bound prunes aggressively (pointless without pruning). Ties keep
		// their enumeration order.
		type key struct {
			goal float64
			at   int
		}
		var keys []key
		for l, os := range opts {
			keys = keys[:0]
			for j := range os {
				v, _, _ := sc.score(os[j].vignettes)
				keys = append(keys, key{goal: v.Get(cfg.goal), at: j})
			}
			slices.SortStableFunc(keys, func(a, b key) int { return cmp.Compare(a.goal, b.goal) })
			sorted := make([]option, len(os))
			for j, k := range keys {
				sorted[j] = os[k.at]
			}
			opts[l] = sorted
		}
	}

	nodeCap := cfg.nodeCap
	if nodeCap == 0 {
		nodeCap = defaultNodeCap
	}

	// Two schedules, one search. The evaluation queries plan in milliseconds
	// on one goroutine, so automatic parallelism only pays off on big option
	// trees; an explicit Workers request always gets the pool. Sequential is
	// the degenerate schedule: a single task — the whole tree, rooted at the
	// empty prefix — run on the calling goroutine. The plan is identical
	// either way.
	workers := 1
	if w := parallel.Workers(cfg.workers); w > 1 && len(opts) > 0 &&
		(cfg.workers > 1 || estLeaves(opts) >= parallelSearchThreshold) {
		workers = w
	}
	lone := workers == 1
	// The shared node counter, which enforces the cap. A task adds its nodes
	// in batches of nodeBatch and checks the counter plus its unadded nodes,
	// so a lone task stops at exactly the node past the cap and a pool can
	// run past it by fewer than workers×nodeBatch nodes before every task has
	// seen it.
	var nodes atomic.Int64
	frontier := [][]int{{}}
	if !lone {
		frontier = expandFrontier(opts, workers*4, &nodes)
	}
	// Every node is visited exactly once: shallow ones by the expansion,
	// counted here, deeper ones inside their task, added by the reduction.
	stats.PrefixesExplored = nodes.Load()

	// The shared incumbent bound: the cost vector of the best full candidate
	// published by any task so far. Tasks prune against it strictly.
	var bound atomic.Pointer[costmodel.Vector]
	publish := func(v costmodel.Vector) {
		for {
			cur := bound.Load()
			if cur != nil && !betterPlan(v, *cur, cfg.goal) {
				return
			}
			nv := v
			if bound.CompareAndSwap(cur, &nv) {
				return
			}
		}
	}

	type taskResult struct {
		best  *candidate // the task's incumbent
		stats Stats
	}

	results, err := parallel.Map(nil, len(frontier), workers, func(t int) (taskResult, error) {
		var r taskResult
		fs := newFrameStack(sc, opts)
		for lvl, j := range frontier[t] {
			fs.push(lvl, j)
		}
		// The incumbent is recorded in place: one candidate, overwritten by
		// every improvement.
		incumbent := candidate{choice: make([]option, len(opts))}
		var pending int64 // nodes visited, not yet added to the shared counter

		var dfs func(d int) error
		dfs = func(d int) error {
			r.stats.PrefixesExplored++
			if pending++; pending == nodeBatch {
				nodes.Add(nodeBatch)
				pending = 0
			}
			if nodes.Load()+pending > nodeCap {
				return ErrNodeCap
			}
			if nodeHook != nil {
				nodeHook(fs, d)
			}
			f := &fs.frames[d]
			partial := f.finish()
			if !cfg.noBB {
				// Prune on hard limits: a prefix above a limit can only get
				// worse (all work counters are non-negative).
				if _, bad := cfg.limits.Violated(partial); bad {
					r.stats.Pruned++
					return nil
				}
				// Prune on the task's own incumbent, non-strictly. Partial
				// costs only grow, so a prefix already no better than the
				// incumbent (goal-first, footprint on ties — the order
				// betterPlan uses) cannot win within this task.
				if r.best != nil && !betterPlan(partial, r.best.cost, cfg.goal) {
					r.stats.Pruned++
					return nil
				}
				// Prune on the shared bound, on strict dominance only. (A
				// lone task's bound is its own incumbent, which the check
				// above already covers.)
				if b := bound.Load(); b != nil && betterPlan(*b, partial, cfg.goal) {
					r.stats.Pruned++
					return nil
				}
			}
			if d == len(opts) {
				// A leaf's partial cost is the plan's exact cost. With
				// pruning on, it has already passed the limits above.
				r.stats.FullCandidates++
				if cfg.noBB {
					if _, bad := cfg.limits.Violated(partial); bad {
						return nil
					}
				}
				if r.best == nil || betterPlan(partial, r.best.cost, cfg.goal) {
					r.best = &incumbent
					for l, j := range fs.idx {
						incumbent.choice[l] = opts[l][j]
					}
					incumbent.cost, incumbent.bd, incumbent.m = partial, f.bd, f.m
					if !lone {
						publish(partial) // a lone task's bound is its own incumbent
					}
				}
				return nil
			}
			for j := range opts[d] {
				fs.push(d, j)
				if err := dfs(d + 1); err != nil {
					return err
				}
			}
			return nil
		}
		err := dfs(len(frontier[t]))
		nodes.Add(pending)
		return r, err
	})
	if err != nil {
		// An aborted search has no task results to add up; every task has
		// added all its nodes to the shared counter by the time Map returns.
		stats.Aborted = true
		stats.PrefixesExplored = nodes.Load()
		return nil, stats, ErrNodeCap
	}

	// Ordered reduction in task order — the order one DFS over the whole tree
	// reaches the same subtrees — with the incumbent rule of a single task
	// ("replace only if strictly better").
	var best *candidate
	for _, r := range results {
		stats.PrefixesExplored += r.stats.PrefixesExplored
		stats.FullCandidates += r.stats.FullCandidates
		stats.Pruned += r.stats.Pruned
		if r.best != nil && (best == nil || betterPlan(r.best.cost, best.cost, cfg.goal)) {
			best = r.best
		}
	}
	if best == nil {
		return nil, stats, errors.New("planner: no plan satisfies the limits")
	}
	if levelOf != nil {
		// Back to one option per step: each step's own option under the
		// label its kind's level chose.
		perStep := make([]option, len(steps))
		for i := range steps {
			perStep[i] = stepOpts[i][labelIndex(stepOpts[i], best.choice[levelOf[i]].choiceVal)]
		}
		best.choice = perStep
	}
	return best, stats, nil
}

// tieKinds folds the per-step option lists into one search level per step
// kind: a level's options are the labels every step of the kind offers, each
// carrying the vignettes of all those steps, so one choice prices the
// operator everywhere the query uses it. That is what a plan can say — its
// Choices hold one label per kind, EMVariant and SumFanout one value per
// plan — and what the runtime can honour: every em call of a run executes
// the one variant. It also makes the tree's depth a property of the
// language (nine kinds) instead of the program's length: ten em calls search
// the tree one em call does. Returns the levels, in order of each kind's
// first step, and the level of every step.
func tieKinds(steps []step, stepOpts [][]option) ([][]option, []int, error) {
	var levels [][]option
	levelOf := make([]int, len(steps))
	first := map[stepKind]int{}
	for i, st := range steps {
		l, tied := first[st.kind]
		if !tied {
			first[st.kind] = len(levels)
			levelOf[i] = len(levels)
			levels = append(levels, append([]option(nil), stepOpts[i]...))
			continue
		}
		levelOf[i] = l
		shared := levels[l][:0]
		for _, o := range levels[l] {
			if j := labelIndex(stepOpts[i], o.choiceVal); j >= 0 {
				o.vignettes = append(o.vignettes[:len(o.vignettes):len(o.vignettes)], stepOpts[i][j].vignettes...)
				shared = append(shared, o)
			}
		}
		if len(shared) == 0 {
			return nil, nil, fmt.Errorf("planner: no %v implementation fits every %v step of the query", st.kind, st.kind)
		}
		levels[l] = shared
	}
	return levels, levelOf, nil
}

// labelIndex finds the option with the given choice label (-1 if none).
func labelIndex(os []option, label string) int {
	for j := range os {
		if os[j].choiceVal == label {
			return j
		}
	}
	return -1
}

// nodeHook, when a test sets it, is shown every node the DFS visits — the
// task's frame stack and the node's depth — from whichever goroutine runs
// the task.
var nodeHook func(fs *frameStack, d int)

// ErrNodeCap is what a search returns when the shared node counter crosses
// Request.NodeCap: the query's option tree is larger than the caller is
// willing to search.
var ErrNodeCap = errors.New("planner: search exceeded the node cap")

// parallelSearchThreshold is the estimated full-candidate count below which
// an automatically-sized search stays sequential: per-node work is tiny
// (microseconds), so small trees finish before a pool would warm up.
const parallelSearchThreshold = 1 << 14

// nodeBatch is how many nodes a task visits between additions to the shared
// node counter: rare enough that the counter's cache line stays put,
// small next to any cap worth setting.
const nodeBatch = 1 << 10

// estLeaves estimates the full-candidate count of the option tree (the
// product of per-step option counts), saturating well past the threshold.
func estLeaves(opts [][]option) int64 {
	leaves := int64(1)
	for _, os := range opts {
		leaves *= int64(len(os))
		if leaves >= 1<<30 {
			return 1 << 30
		}
	}
	return leaves
}

// expandFrontier expands the shallowest levels of the option tree
// breadth-first into at least want subtree roots (option indices per level),
// in the order one DFS over the whole tree would reach them, so the pool
// stays busy even when subtree sizes are lopsided. Each expanded node is
// counted once, here.
func expandFrontier(opts [][]option, want int, nodes *atomic.Int64) [][]int {
	frontier := [][]int{{}}
	for depth := 0; depth < len(opts) && len(frontier) < want; depth++ {
		next := make([][]int, 0, len(frontier)*len(opts[depth]))
		for _, pre := range frontier {
			nodes.Add(1)
			for j := range opts[depth] {
				child := make([]int, len(pre)+1)
				copy(child, pre)
				child[len(pre)] = j
				next = append(next, child)
			}
		}
		frontier = next
	}
	return frontier
}
