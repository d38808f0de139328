package runtime

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"

	"arboretum/internal/costmodel"
	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/parallel"
	"arboretum/internal/plan"
	"arboretum/internal/planner"
	"arboretum/internal/privacy"
	"arboretum/internal/types"
)

// RunOptions is what a run takes besides the query and the plan. Every
// execution-level choice (the em variant, the sum tree's fanout) lives on the
// plan.Plan the run executes, so there is none to set here.
type RunOptions struct {
	// Ctx cancels the run cooperatively: the runtime checks it at phase,
	// statement, vignette-attempt, and ingest-batch boundaries — points
	// where nothing is half-open, so a canceled run aborts without having
	// released anything on the in-flight step — and returns the context's
	// error wrapped with the checkpoint that observed it. nil never
	// cancels. The gateway uses this for per-job deadlines
	// (docs/SERVICE.md).
	Ctx context.Context
}

// checkpoint returns the run context's error, wrapped with where the
// cancellation was observed, once the context is done; nil otherwise. The
// caller sites are the run's cancellation checkpoints: batch, vignette,
// statement, and phase boundaries.
func (d *Deployment) checkpoint(where string) error {
	if d.runCtx == nil {
		return nil
	}
	select {
	case <-d.runCtx.Done():
		return fmt.Errorf("runtime: run canceled at %s: %w", where, d.runCtx.Err())
	default:
		return nil
	}
}

// Result is a completed query execution.
type Result struct {
	Outputs     []fixed.Fixed
	Certificate *privacy.Certificate
	Plan        *plan.Plan       // the plan that was executed
	Auth        *AuthCertificate // the published query authorization
	Sampled     int              // devices included by secrecy-of-the-sample (0 = all)
	Accepted    int              // inputs that passed ZKP verification

	// Spent is the ε the run released at each mechanism call site, keyed
	// by Certificate.Mechanisms' Pos and counted at every open of a noised
	// value. A call site never spends more than its certified Epsilon ×
	// Invocations.
	Spent map[lang.Pos]float64
}

// ErrPlanNotExecutable is RunPlan's refusal of a priced-only plan: one that
// chose an option the runtime has no code path for (plan.Plan.Executable).
// Nothing has been selected, charged or collected when it is returned.
var ErrPlanNotExecutable = errors.New("runtime: plan is priced-only (it chose an option the runtime cannot execute)")

// ErrPlanSearchExceeded is Run's refusal of a certified query whose option
// tree is larger than planSearchCap; it wraps planner.ErrNodeCap. Nothing
// has been selected, charged or collected when it is returned.
var ErrPlanSearchExceeded = errors.New("runtime: query is too large to plan")

// planSearchCap bounds the planning Run does on behalf of whoever submitted
// the query — over HTTP, any tenant. Planning for execution makes one choice
// per step kind (planner.Request.ExecutableOnly), so the tree's depth does
// not grow with the program: ten em/max pairs search ~5,000 prefixes like one
// pair does, the evaluation corpus at most 9,590 (gap at 64×32), and a query
// using every operator of the language 0.2–1.4 million (~1 s) at shapes from
// 64×8 to 2^20×2^15. The cap is a backstop past all of those, not a gate any
// known query meets. (A variable so that a test can lower it.)
var planSearchCap int64 = 1 << 21

// PlanRequest is the planning task Run sets itself for src: this deployment's
// own (N, Categories), expected device CPU as the goal, the evaluation
// limits, the default cost model, and only options the runtime can execute.
// The search runs on the calling goroutine. A caller that wants one choice different pins it (ForceChoices), plans, and
// hands the plan to RunPlan.
func (d *Deployment) PlanRequest(src string) planner.Request {
	return planner.Request{
		Source:         src,
		N:              int64(d.cfg.N),
		Categories:     int64(d.cfg.Categories),
		Goal:           costmodel.PartExpCPU,
		Limits:         planner.DefaultLimits,
		NodeCap:        planSearchCap,
		ExecutableOnly: true,
	}
}

// Run plans the query for this deployment's own shape and executes the plan:
// admit once (privacy.Admit), search the options the runtime can execute for
// the plan cheapest in expected device CPU under the evaluation limits, then
// run it exactly as RunPlan would. The plan is a pure function of (src, N,
// Categories), so a re-run — the gateway's crash recovery — executes the
// same plan.
func (d *Deployment) Run(src string, opts RunOptions) (*Result, error) {
	return d.admitted(src, opts, func(prog *lang.Program, info *types.Info, cert *privacy.Certificate) (*plan.Plan, error) {
		if err := d.checkpoint("plan"); err != nil {
			return nil, err
		}
		res, err := planner.PlanAdmitted(d.PlanRequest(src), prog, info, cert)
		if errors.Is(err, planner.ErrNodeCap) {
			return nil, fmt.Errorf("%w: %w", ErrPlanSearchExceeded, err)
		}
		if err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		return res.Plan, d.checkpoint("plan")
	})
}

// RunPlan executes a query under a plan made elsewhere — at deployment scale
// (the paper's plan-once-then-execute composition), or with a choice forced
// (planner.Request.ForceChoices). A plan is structure plus typed choices:
// RunPlan reads EMVariant and SumFanout and sizes everything else from its
// own Config, so a plan made for 2^30 devices runs on 64. A priced-only plan
// is refused with ErrPlanNotExecutable.
func (d *Deployment) RunPlan(p *plan.Plan, src string, opts RunOptions) (*Result, error) {
	return d.admitted(src, opts, func(*lang.Program, *types.Info, *privacy.Certificate) (*plan.Plan, error) {
		return p, nil
	})
}

// admitted is Run's and RunPlan's one prologue: it holds opts.Ctx as the
// run's cancellation context until the run returns, admits src, and executes
// the plan planFor makes for the admitted query.
func (d *Deployment) admitted(src string, opts RunOptions, planFor func(*lang.Program, *types.Info, *privacy.Certificate) (*plan.Plan, error)) (*Result, error) {
	d.runCtx = opts.Ctx
	defer func() { d.runCtx = nil }()
	prog, info, cert, err := admit(src, d.cfg.N, d.cfg.Categories)
	if err != nil {
		return nil, err
	}
	p, err := planFor(prog, info, cert)
	if err != nil {
		return nil, err
	}
	return d.execute(p, src, prog, cert)
}

// execute runs an admitted query under a plan, end to end over the
// deployment (Section 5's whole pipeline): it charges the privacy budget,
// runs sortition, key generation, ZKP-checked input collection, audited
// aggregation, committee vignettes, and returns the released outputs.
func (d *Deployment) execute(p *plan.Plan, src string, prog *lang.Program, cert *privacy.Certificate) (*Result, error) {
	if p == nil || !p.Executable {
		return nil, ErrPlanNotExecutable
	}
	sites, err := sitesOf(cert, p.EMVariant)
	if err != nil {
		return nil, err
	}
	if err := d.checkpoint("query start"); err != nil {
		return nil, err
	}
	d.spent = map[lang.Pos]float64{}

	// Sortition for this query round: committee 0 generates keys
	// (Section 5.2), committee 1 decrypts the sums into its MPC and runs
	// the first operations, and later committees take over at mechanism
	// boundaries, the inputs moving by VSR transfer (Section 5.4). Extra
	// committees also serve as spares when churn breaks one (Section 5.1).
	const spares = 4
	all, err := d.selectCommittees(min(2+spares, len(d.Devices)/d.cfg.CommitteeSize))
	if err != nil {
		return nil, err
	}
	committees, pool, err := d.pickViable(all, 2)
	if err != nil {
		return nil, err
	}
	d.queryID++

	encryptions := d.keyEncryptions(cert.SampleRate < 1)
	km, err := d.keygen(committees[0], encryptions)
	if err != nil {
		return nil, err
	}
	// The key-generation committee checks the budget before authorizing the
	// query (Section 5.2).
	if err := d.Budget.Charge(cert); err != nil {
		return nil, fmt.Errorf("runtime: query rejected: %w", err)
	}
	// ... and signs the query authorization certificate, which devices
	// verify before encrypting anything under the new key.
	auth, err := d.issueCertificate(km, planDigest(src, p))
	if err != nil {
		return nil, err
	}
	if err := d.VerifyCertificate(auth); err != nil {
		return nil, fmt.Errorf("runtime: devices reject certificate: %w", err)
	}

	if err := d.checkpoint("input collection"); err != nil {
		return nil, err
	}
	// Input collection and audited aggregation (Section 5.3): the sums
	// arrive combined and audited (docs/INGEST.md). Sampling queries run the
	// bin protocol of Section 6: devices hide their contribution in a random
	// bin, and the committee sums only a secret window of bins.
	var (
		res  *ingestResult
		bins []int
	)
	if cert.SampleRate < 1 {
		res, bins, err = d.collectBinned(km, p.SumFanout)
	} else {
		res, err = d.collectInputs(km, p.SumFanout)
	}
	if err != nil {
		return nil, err
	}

	// Hand the key to the decryption committee via VSR (Section 5.2), which
	// decrypts the sums once into its MPC; then run the program with that
	// committee attached. The query forms every committee it runs from
	// here on, and their traffic reaches the metrics once, however the
	// query ends.
	ip := &interp{dep: d, pool: pool, env: map[string]value{}, sites: sites, emVariant: p.EMVariant}
	defer ip.flushMetrics()
	sampled := res.accepted
	decryptAndRun := func() error {
		if err := d.checkpoint("key hand-off"); err != nil {
			return err
		}
		if err := km.handoff(d, committees[1]); err != nil {
			return err
		}
		ce, err := ip.newCommittee(committees[1])
		if err != nil {
			return err
		}
		counts, err := d.unpack(ce, km, res)
		if err != nil {
			return err
		}
		if cert.SampleRate < 1 {
			if counts, sampled, err = d.windowSums(ce, counts, bins, cert.SampleRate); err != nil {
				return err
			}
		}
		ip.ce, ip.db = ce, value{kind: vSharedArr, secs: counts, eng: ce}
		return ip.run(prog.Stmts)
	}
	if err := d.drawingAhead(encryptions, decryptAndRun); err != nil {
		return nil, err
	}

	return &Result{
		Outputs:     ip.outputs,
		Certificate: cert,
		Plan:        p,
		Auth:        auth,
		Sampled:     sampled,
		Accepted:    res.accepted,
		Spent:       d.spent,
	}, nil
}

// drawingAhead runs phase, a query's committee phase, and from a
// deployment's second query on draws the next query's key beside it, sized
// for encryptions, as the deployment's spare. The MPC runs on one core, so
// the draw leaves the critical path. It touches nothing of the deployment,
// and both tasks end before drawingAhead returns; at one worker they run in
// order. A deployment's first query may be its only one (the gateway builds
// a deployment per job), so it draws no key ahead.
func (d *Deployment) drawingAhead(encryptions int, phase func() error) error {
	if d.queryID == 1 {
		return phase()
	}
	var ahead spareKey
	err := parallel.ForEach(nil, 2, 0, func(i int) error {
		if i == 0 {
			return phase()
		}
		ahead.sk, ahead.err = drawKey(rand.Reader, d.cfg.KeyBits, encryptions)
		ahead.encryptions = encryptions
		return nil
	})
	d.spare = ahead
	return err
}
