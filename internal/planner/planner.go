package planner

import (
	"fmt"
	"time"

	"arboretum/internal/costmodel"
	"arboretum/internal/lang"
	"arboretum/internal/plan"
	"arboretum/internal/privacy"
	"arboretum/internal/types"
)

// Request describes one planning task: the query, the deployment, the
// analyst's optimization goal, and optional limits (Section 4.2's example:
// "the aggregator must not spend more than 1,000 core-hours and user devices
// must not be asked to send more than 500 MB, and ... the plan with the
// lowest expected computation time on participant devices").
type Request struct {
	Name   string
	Source string // query text

	N          int64       // participants
	Categories int64       // db row width (one-hot categories)
	ElemRange  types.Range // db element range; default [0,1]

	Goal   costmodel.Metric
	Limits costmodel.Limits

	Model *costmodel.Model // nil → costmodel.Default()

	// DisableBranchAndBound turns off pruning (the ablation of Section 7.3).
	DisableBranchAndBound bool
	// NodeCap bounds the prefixes a search may visit (0 = 50 million); at
	// the first prefix past it Plan returns ErrNodeCap.
	NodeCap int64

	// ForceChoices pins steps to implementations whose choice value starts
	// with the given prefix (e.g. {"sum": "device-tree"} forces a sum tree,
	// {"em": "gumbel"} forces the Gumbel variant). Used by the design-choice
	// ablations and by `arboretum explain` to price the roads not taken.
	ForceChoices map[string]string

	// Workers is read by nothing: the search is one sequential DFS.
	//
	// Deprecated: the next change to the benchmark module removes it
	// (ROADMAP item 5), together with the lines there that set it.
	Workers int

	// ExecutableOnly restricts the search to what the runtime can execute,
	// so the plan can be handed to runtime.Deployment.RunPlan: only options
	// it has a code path for, and one choice per step kind — a run has one
	// em variant and one sum fanout, so every step of a kind is priced under
	// the same label (search.go, tieKinds), and a query's search no longer
	// grows with the number of mechanism calls in it. The zero value prices
	// the whole design space (FHE circuits, one-shot top-k, a choice per
	// step), which is what `arboretum plan`, `explain` and the evaluation
	// do; such a plan may come out with Plan.Executable false.
	ExecutableOnly bool
}

// DefaultLimits matches the evaluation setup (Section 7.2): participants may
// send up to 4 GB and compute up to 20 minutes. The aggregator budget is set
// to 10,000 core-hours — consistent with Figure 8b, which shows runs of up
// to ~15 hours on 1,000 cores (Figure 10 separately sweeps tighter budgets
// of 1,000 and 5,000 core-hours).
var DefaultLimits = costmodel.Limits{
	PartMaxBytes: 4e9,
	PartMaxCPU:   20 * 60,
	AggCPU:       10000 * 3600,
}

// Result is the planning outcome.
type Result struct {
	Plan         *plan.Plan
	Certificate  *privacy.Certificate
	Stats        Stats
	PlanningTime time.Duration
}

// Plan runs the whole pipeline of Section 4: certify, expand, place, encrypt,
// score, and select.
func Plan(req Request) (*Result, error) {
	start := time.Now()
	if req.N <= 0 {
		return nil, fmt.Errorf("planner: invalid participant count %d", req.N)
	}
	if req.Categories <= 0 {
		req.Categories = 1
	}
	elem := req.ElemRange
	if elem.Lo == 0 && elem.Hi == 0 {
		elem = types.Range{Lo: 0, Hi: 1}
	}
	prog, info, cert, err := privacy.Admit(req.Source,
		types.DBInfo{N: req.N, Width: req.Categories, ElemRange: elem})
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	return planAdmitted(req, prog, info, cert, start)
}

// PlanAdmitted plans a query its caller has already put through
// privacy.Admit — the runtime, which admits once and both plans and runs
// from that one program and certificate. The deployment shape is the one the
// query was admitted against (info.DB); req.Source is not read.
func PlanAdmitted(req Request, prog *lang.Program, info *types.Info, cert *privacy.Certificate) (*Result, error) {
	req.N, req.Categories = info.DB.N, info.DB.Width
	return planAdmitted(req, prog, info, cert, time.Now())
}

func planAdmitted(req Request, prog *lang.Program, info *types.Info, cert *privacy.Certificate, start time.Time) (*Result, error) {
	steps, err := decompose(prog, info)
	if err != nil {
		return nil, err
	}

	model := req.Model
	if model == nil {
		model = costmodel.Default()
	}
	sp := defaultSpace(req.N, model)
	sp.execOnly = req.ExecutableOnly
	sc := newScorer(req.N, model)
	cfg := searchConfig{
		goal:    req.Goal,
		limits:  req.Limits,
		noBB:    req.DisableBranchAndBound,
		nodeCap: req.NodeCap,
		force:   req.ForceChoices,
	}
	best, stats, err := search(steps, sp, sc, cfg)
	if err != nil {
		return &Result{Stats: *stats, PlanningTime: time.Since(start)}, err
	}

	return &Result{
		Plan:         assemble(req, steps, best),
		Certificate:  cert,
		Stats:        *stats,
		PlanningTime: time.Since(start),
	}, nil
}

// assemble builds the final Plan object from the winning candidate (one
// option per step).
func assemble(req Request, steps []step, best *candidate) *plan.Plan {
	bd := best.bd
	p := &plan.Plan{
		Query:           req.Name,
		N:               req.N,
		Categories:      req.Categories,
		Choices:         map[string]string{},
		Executable:      true,
		Cost:            best.cost,
		ByRole:          bd.roleMap(),
		BaseCPU:         bd.baseCPU,
		BaseBytes:       bd.baseBytes,
		AggOpsCPU:       bd.aggOpsCPU,
		AggVerifyCPU:    bd.aggVerifyCPU,
		AggForwardBytes: bd.aggForwardBytes,
		CommitteeSize:   best.m,
	}
	id := 0
	add := func(v plan.Vignette) {
		v.ID = id
		id++
		p.Vignettes = append(p.Vignettes, &v)
	}
	add(keygenVignette())
	var committees int64 = 1
	var prev *plan.Vignette
	var sawEM, sawSum bool
	for i, o := range best.choice {
		p.Choices[steps[i].kind.String()] = o.choiceVal
		p.Executable = p.Executable && o.exec
		// The execution-level choices cross to the runtime typed. Only the
		// em and sum steps steer it: topk's peel-… options name an em
		// variant too, but the runtime's top-k has one implementation. A
		// plan holds one value of each, so two steps that chose differently
		// (only a full-space search lets them) make it priced-only.
		switch steps[i].kind {
		case stepEM:
			p.Executable = p.Executable && (!sawEM || p.EMVariant == o.em)
			p.EMVariant, sawEM = o.em, true
		case stepSum:
			p.Executable = p.Executable && (!sawSum || p.SumFanout == o.sumFanout)
			p.SumFanout, sawSum = o.sumFanout, true
		}
		for _, id := range o.vigs {
			v := best.vs[id]
			committees += v.Committees()
			// Merge heuristic (Section 4.4): consecutive vignettes in the
			// same location might as well be one — unless both run on
			// committees, where splitting respects per-member work limits.
			if prev != nil && prev.Loc == v.Loc && v.Loc != plan.Committee &&
				prev.Parallel == v.Parallel && prev.Count == v.Count && prev.Crypto == v.Crypto {
				prev.Work.Add(v.Work)
				prev.Desc = prev.Desc + "; " + v.Desc
				continue
			}
			add(v)
			prev = p.Vignettes[len(p.Vignettes)-1]
		}
	}
	p.CommitteeCount = int(committees)
	return p
}
