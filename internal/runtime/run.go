package runtime

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"

	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/parallel"
	"arboretum/internal/plan"
	"arboretum/internal/privacy"
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

// checkpoint returns ctx's error, wrapped with where the cancellation was
// observed, once ctx is done; nil otherwise, and always for a nil ctx. The
// caller sites are the run's cancellation checkpoints: ingest batch,
// vignette, statement, and phase boundaries.
func checkpoint(ctx context.Context, where string) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("runtime: run canceled at %s: %w", where, ctx.Err())
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

// Run admits and plans the query for this deployment's own shape (Admit)
// and executes the plan (Execute).
func (d *Deployment) Run(src string, opts RunOptions) (*Result, error) {
	a, err := Admit(src, d.cfg.N, d.cfg.Categories)
	if err != nil {
		return nil, err
	}
	return d.Execute(a, opts)
}

// RunPlan executes a query under a plan made elsewhere — at deployment scale
// (the paper's plan-once-then-execute composition), or with a choice forced
// (planner.Request.ForceChoices). A plan is structure plus typed choices:
// RunPlan reads EMVariant and SumFanout and sizes everything else from its
// own Config, so a plan made for 2^30 devices runs on 64. It admits src for
// this deployment's shape, as Admit does, and does not plan. A priced-only
// plan is refused with ErrPlanNotExecutable.
func (d *Deployment) RunPlan(p *plan.Plan, src string, opts RunOptions) (*Result, error) {
	prog, info, cert, err := admit(src, d.cfg.N, d.cfg.Categories)
	if err != nil {
		return nil, err
	}
	return d.Execute(&Admitted{Certificate: cert, src: src, prog: prog, info: info, plan: p}, opts)
}

// Execute runs a query admitted for this deployment's shape under its plan,
// holding opts.Ctx as the run's cancellation context until it returns. A
// query admitted for another shape, whose certificate holds for another
// database, is refused before anything is charged.
func (d *Deployment) Execute(a *Admitted, opts RunOptions) (*Result, error) {
	if db := a.info.DB; db.N != int64(d.cfg.N) || db.Width != int64(d.cfg.Categories) {
		return nil, fmt.Errorf("runtime: query admitted for %d devices × %d categories, deployment has %d × %d",
			db.N, db.Width, d.cfg.N, d.cfg.Categories)
	}
	d.runCtx = opts.Ctx
	defer func() { d.runCtx = nil }()
	return d.execute(a)
}

// execute runs an admitted query under its plan, end to end over the
// deployment (Section 5's whole pipeline): it charges the privacy budget,
// runs sortition, key generation, ZKP-checked input collection, audited
// aggregation, committee vignettes, and returns the released outputs.
func (d *Deployment) execute(a *Admitted) (*Result, error) {
	p, cert := a.plan, a.Certificate
	if p == nil || !p.Executable {
		return nil, ErrPlanNotExecutable
	}
	sites, err := sitesOf(cert, p.EMVariant)
	if err != nil {
		return nil, err
	}
	if err := checkpoint(d.runCtx, "query start"); err != nil {
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
	auth, err := d.issueCertificate(km, planDigest(a.src, p))
	if err != nil {
		return nil, err
	}
	if err := d.VerifyCertificate(auth); err != nil {
		return nil, fmt.Errorf("runtime: devices reject certificate: %w", err)
	}

	if err := checkpoint(d.runCtx, "input collection"); err != nil {
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
		if err := checkpoint(d.runCtx, "key hand-off"); err != nil {
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
		return ip.run(a.prog.Stmts)
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
	err := parallel.ForEach(2, 0, func(i int) error {
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
