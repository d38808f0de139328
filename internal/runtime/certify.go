package runtime

import (
	"errors"
	"fmt"

	"arboretum/internal/costmodel"
	"arboretum/internal/lang"
	"arboretum/internal/plan"
	"arboretum/internal/planner"
	"arboretum/internal/privacy"
	"arboretum/internal/types"
)

// Admitted is a query put through the one front end (privacy.Admit) for a
// deployment shape and planned for it: what Deployment.Execute runs. Admit
// makes it once per query, so the certificate that prices a reservation is
// the certificate the run charges, the same object.
type Admitted struct {
	Certificate *privacy.Certificate

	src  string
	prog *lang.Program
	info *types.Info // info.DB is the shape the query was admitted for
	plan *plan.Plan
}

// admit puts src through privacy.Admit against the database a deployment of
// n devices presents: one one-hot row of the given width per device,
// elements in [0, 1].
func admit(src string, n, categories int) (*lang.Program, *types.Info, *privacy.Certificate, error) {
	prog, info, cert, err := privacy.Admit(src, types.DBInfo{
		N: int64(n), Width: int64(categories),
		ElemRange: types.Range{Lo: 0, Hi: 1},
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("runtime: %w", err)
	}
	return prog, info, cert, nil
}

// Admit admits src for a deployment of n devices (one-hot width categories)
// and plans it for that shape (planRequest), a pure function of (src, n,
// categories). A query whose search passes planSearchCap is refused with
// ErrPlanSearchExceeded. Nothing is charged or collected either way.
func Admit(src string, n, categories int) (*Admitted, error) {
	prog, info, cert, err := admit(src, n, categories)
	if err != nil {
		return nil, err
	}
	res, err := planner.PlanAdmitted(planRequest(src, n, categories), prog, info, cert)
	if errors.Is(err, planner.ErrNodeCap) {
		return nil, fmt.Errorf("%w: %w", ErrPlanSearchExceeded, err)
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return &Admitted{Certificate: cert, src: src, prog: prog, info: info, plan: res.Plan}, nil
}

// ErrPlanSearchExceeded is Admit's refusal of a certified query whose
// option tree is larger than planSearchCap; it wraps planner.ErrNodeCap.
// Nothing has been selected, charged or collected when it is returned.
var ErrPlanSearchExceeded = errors.New("runtime: query is too large to plan")

// planSearchCap bounds the planning Admit does on behalf of whoever submitted
// the query — over HTTP, any tenant. Planning for execution makes one choice
// per step kind (planner.Request.ExecutableOnly), so the tree's depth does
// not grow with the program: one em/max pair searches 422 prefixes at 64×8
// and ten pairs 2,298, the evaluation corpus at most 4,651 (gap at 2048×16),
// and a query using every kind of operator 263–6,710 (~2 ms) at shapes from
// 64×8 to 2^20×2^15. The cap is a backstop past all of those, not a gate any
// known query meets. (A variable so that a test can lower it.)
var planSearchCap int64 = 1 << 21

// PlanRequest is the planning task Admit sets itself for src at this
// deployment's own (N, Categories): expected device CPU as the goal, the
// evaluation limits, the default cost model, and only options the runtime
// can execute. The search runs on the calling goroutine. A caller that wants
// one choice different pins it (ForceChoices), plans, and hands the plan to
// RunPlan.
func (d *Deployment) PlanRequest(src string) planner.Request {
	return planRequest(src, d.cfg.N, d.cfg.Categories)
}

func planRequest(src string, n, categories int) planner.Request {
	return planner.Request{
		Source:         src,
		N:              int64(n),
		Categories:     int64(categories),
		Goal:           costmodel.PartExpCPU,
		Limits:         planner.DefaultLimits,
		NodeCap:        planSearchCap,
		ExecutableOnly: true,
	}
}

// Certify admits src without planning it: the certificate a deployment of n
// devices (one-hot width categories) would charge for it, a pure function of
// (src, n, categories). A query that fails admission is refused with the
// returned error and spends nothing.
func Certify(src string, n, categories int) (*privacy.Certificate, error) {
	_, _, cert, err := admit(src, n, categories)
	return cert, err
}
