package runtime

import (
	"context"
	"errors"
	"fmt"

	"arboretum/internal/ahe"
	"arboretum/internal/costmodel"
	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/parallel"
	"arboretum/internal/plan"
	"arboretum/internal/planner"
	"arboretum/internal/privacy"
	"arboretum/internal/sortition"
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
	// by Certificate.Mechanisms' Pos and counted at every open or decrypt of
	// a noised value. A call site never spends more than its certified
	// Epsilon × Invocations.
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
// It leaves Workers unset, so the tree's size picks the search schedule: a
// Run's small tree plans on the calling goroutine whatever Config.Workers
// says. A caller that wants one choice different pins it (ForceChoices),
// plans, and hands the plan to RunPlan.
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
	d.runCtx = opts.Ctx
	defer func() { d.runCtx = nil }()
	prog, info, cert, err := admit(src, d.cfg.N, d.cfg.Categories)
	if err != nil {
		return nil, err
	}
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
	if err := d.checkpoint("plan"); err != nil {
		return nil, err
	}
	return d.execute(res.Plan, src, prog, cert)
}

// RunPlan executes a query under a plan made elsewhere — at deployment scale
// (the paper's plan-once-then-execute composition), or with a choice forced
// (planner.Request.ForceChoices). A plan is structure plus typed choices:
// RunPlan reads EMVariant and SumFanout and sizes everything else from its
// own Config, so a plan made for 2^30 devices runs on 64. A priced-only plan
// is refused with ErrPlanNotExecutable.
func (d *Deployment) RunPlan(p *plan.Plan, src string, opts RunOptions) (*Result, error) {
	d.runCtx = opts.Ctx
	defer func() { d.runCtx = nil }()
	prog, _, cert, err := admit(src, d.cfg.N, d.cfg.Categories)
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
	if err := d.checkpoint("query start"); err != nil {
		return nil, err
	}
	d.spent = map[lang.Pos]float64{}

	// Sortition for this query round: committee 0 generates keys
	// (Section 5.2), committee 1 runs the first operations/decryption
	// vignettes, and later committees take over at mechanism boundaries
	// with VSR hand-offs (Section 5.4). Extra committees also serve as
	// spares when churn breaks one (Section 5.1).
	const spares = 4
	want := 2 + spares
	if max := len(d.Devices) / d.cfg.CommitteeSize; want > max {
		want = max
	}
	all, err := d.selectCommittees(want)
	if err != nil {
		return nil, err
	}
	committees, consumed, err := d.pickViable(all, 2)
	if err != nil {
		return nil, err
	}
	// Every remaining viable committee joins the rotation pool.
	var pool []sortition.Committee
	for _, c := range all[consumed:] {
		if d.viableCommittee(c) {
			pool = append(pool, d.onlineMembers(c))
		}
	}
	d.queryID++

	km, err := d.keygen(committees[0])
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
	// bin and the committee decrypts only a secret window of bins.
	var (
		sums     []*ahe.Ciphertext
		sampled  int
		accepted int
	)
	if cert.SampleRate < 1 {
		perBin, binOf, err := d.collectBinned(km, p.SumFanout)
		if err != nil {
			return nil, err
		}
		sums, sampled, err = d.windowSums(km, perBin, binOf, cert.SampleRate)
		if err != nil {
			return nil, err
		}
		accepted = len(binOf)
	} else {
		sums, accepted, err = d.collectInputs(km, p.SumFanout)
		if err != nil {
			return nil, err
		}
		sampled = accepted
	}

	// Hand the key to the operations committee via VSR (Section 5.2), then
	// run the program with that committee attached.
	if err := d.checkpoint("key hand-off"); err != nil {
		return nil, err
	}
	if err := km.handoff(d, committees[1]); err != nil {
		return nil, err
	}
	ce, err := d.newCommittee(committees[1])
	if err != nil {
		return nil, err
	}
	ip := &interp{
		dep: d, km: km, ce: ce,
		pool:      pool,
		env:       map[string]value{},
		dbSums:    sums,
		sens:      cert.Sensitivity,
		uses:      mechanismUses(cert),
		emVariant: p.EMVariant,
	}
	if err := ip.run(prog.Stmts); err != nil {
		return nil, err
	}
	// Fold every committee engine's traffic into the metrics (rotated-away
	// committees may have kept serving transfers).
	for _, e := range d.execs {
		e.flushMetrics()
	}
	d.execs = nil

	return &Result{
		Outputs:     ip.outputs,
		Certificate: cert,
		Plan:        p,
		Auth:        auth,
		Sampled:     sampled,
		Accepted:    accepted,
		Spent:       d.spent,
	}, nil
}

// foldGroups folds vectors column-wise in contiguous groups of the given
// fanout — one pool task per group, partials reassembled in group order, so
// the output is identical at every worker count. It is one level of the
// ingest's shard-combine tree, and reports the traffic the folds generated.
func foldGroups(pub *ahe.PublicKey, inputs [][]*ahe.Ciphertext, fanout, workers int) ([][]*ahe.Ciphertext, int64, error) {
	nGroups := (len(inputs) + fanout - 1) / fanout
	type groupSum struct {
		acc  []*ahe.Ciphertext
		sent int64
	}
	sums, err := parallel.Map(nil, nGroups, workers, func(g int) (groupSum, error) {
		start := g * fanout
		end := start + fanout
		if end > len(inputs) {
			end = len(inputs)
		}
		group := inputs[start:end]
		acc := append([]*ahe.Ciphertext(nil), group[0]...)
		var sent int64
		for _, vec := range group[1:] {
			for c := range acc {
				sum, err := pub.Add(acc[c], vec[c])
				if err != nil {
					return groupSum{}, err
				}
				acc[c] = sum
				sent += int64(sum.Bytes())
			}
		}
		return groupSum{acc: acc, sent: sent}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	out := make([][]*ahe.Ciphertext, 0, nGroups)
	var sent int64
	for _, gs := range sums {
		out = append(out, gs.acc)
		sent += gs.sent
	}
	return out, sent, nil
}
