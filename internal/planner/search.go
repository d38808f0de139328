package planner

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"arboretum/internal/costmodel"
	"arboretum/internal/plan"
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
// the pool its vignette indices point into, the exact cost, the figure
// breakdowns and the committee size.
type candidate struct {
	choice []option
	vs     []plan.Vignette
	cost   costmodel.Vector
	bd     breakdown
	m      int
}

// search runs DFS over the per-step options with branch-and-bound pruning
// and returns the winning candidate. It is one sequential DFS on the calling
// goroutine, so its Stats repeat exactly and the node cap stops it at the
// first prefix past Request.NodeCap. An aborted search still reports every
// counter of the walk it made.
func search(steps []step, sp searchSpace, sc *scorer, cfg searchConfig) (*candidate, *Stats, error) {
	stats := &Stats{}
	p := newPool(steps...)
	stepOpts := make([][]option, len(steps))
	for i, st := range steps {
		os := sp.optionsFor(st, p)
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
		if opts, levelOf, err = tieKinds(steps, stepOpts, p); err != nil {
			return nil, stats, err
		}
	}
	fs := newFrameStack(sc, p.vs, opts)
	if !cfg.noBB {
		// Heuristic order: score each option in isolation and try the
		// cheapest first, so a good incumbent appears early and the
		// bound prunes aggressively (pointless without pruning). Ties keep
		// their enumeration order.
		for _, os := range opts {
			for j := range os {
				v, _, _ := sc.score(p.vs, os[j].vigs)
				os[j].goal = v.Get(cfg.goal)
			}
			slices.SortStableFunc(os, func(a, b option) int { return cmp.Compare(a.goal, b.goal) })
		}
	}

	nodeCap := cfg.nodeCap
	if nodeCap == 0 {
		nodeCap = defaultNodeCap
	}
	// The incumbent is recorded in place: one candidate, overwritten by
	// every improvement.
	var best *candidate
	incumbent := candidate{choice: make([]option, len(opts)), vs: p.vs}

	var dfs func(d int) error
	dfs = func(d int) error {
		if stats.PrefixesExplored++; stats.PrefixesExplored > nodeCap {
			return ErrNodeCap
		}
		if nodeHook != nil {
			nodeHook(fs, d)
		}
		f := &fs.frames[d]
		partial := f.finish()
		if !cfg.noBB {
			// Every completion of the prefix costs at least lb: the partial
			// cost, which only grows as vignettes are appended (score
			// documents this), plus the look-ahead's least cost of the
			// levels still open (frameStack.floor). At a leaf lb is the
			// plan's exact cost.
			lb := addCost(partial, fs.floor(f.m)[d])
			// Prune on hard limits: all work counters are non-negative.
			if _, bad := cfg.limits.Violated(lb); bad {
				stats.Pruned++
				return nil
			}
			// Prune on the incumbent, non-strictly: a prefix whose bound
			// is already no better than the incumbent (goal-first,
			// footprint on ties — the order betterPlan uses) cannot win.
			if best != nil && !betterPlan(lb, best.cost, cfg.goal) {
				stats.Pruned++
				return nil
			}
		}
		if d == len(opts) {
			// A leaf's partial cost is the plan's exact cost. With pruning
			// on, it has already passed the limits above.
			stats.FullCandidates++
			if cfg.noBB {
				if _, bad := cfg.limits.Violated(partial); bad {
					return nil
				}
			}
			if best == nil || betterPlan(partial, best.cost, cfg.goal) {
				best = &incumbent
				for l, j := range fs.idx {
					incumbent.choice[l] = opts[l][j]
				}
				incumbent.cost, incumbent.bd, incumbent.m = partial, f.bd, f.m
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
	if err := dfs(0); err != nil {
		stats.Aborted = true
		return nil, stats, err
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
// carrying the vignettes of all those steps (their index lists concatenated
// in the pool), so one choice prices the operator everywhere the query uses
// it. That is what a plan can say — its Choices hold one label per kind,
// EMVariant and SumFanout one value per plan — and what the runtime can
// honour: every em call of a run executes the one variant. It also makes the
// tree's depth a property of the language (nine kinds) instead of the
// program's length: ten em calls search the tree one em call does. Returns
// the levels, in order of each kind's first step, and the level of every
// step.
func tieKinds(steps []step, stepOpts [][]option, p *pool) ([][]option, []int, error) {
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
				o.vigs = p.carve(o.vigs, stepOpts[i][j].vigs)
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

// nodeHook, when a test sets it, is shown every node the DFS visits: the
// search's frame stack and the node's depth.
var nodeHook func(fs *frameStack, d int)

// ErrNodeCap is what a search returns when it visits more prefixes than
// Request.NodeCap: the query's option tree is larger than the caller is
// willing to search.
var ErrNodeCap = errors.New("planner: search exceeded the node cap")
