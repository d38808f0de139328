package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"arboretum/internal/runtime"
)

// hugeBudget lets one deployment answer every operation of a run.
const hugeBudget = 1e12

// Per-operation privacy parameters, chosen so the correctness checks fail
// by chance with probability at most checkFailure (README.md, "ε behind the
// correctness bounds").
const (
	checkFailure = 1e-9
	laplaceEps   = 1.0
	topKEps      = 8.0
)

// runWL is a workload whose operation is one Deployment.Run on a deployment
// built once in set-up: collect-wide and committee-deep differ only in
// shape, query and check. No runtime.Config field that selects a collection
// path is set, so the default path is what is measured.
type runWL struct {
	sh     shape
	seed   int64
	query  string
	data   []int
	check  func(*runtime.Result) error
	replay int // replay loop scale

	dep  *runtime.Deployment
	base runtime.Metrics // counters after set-up, before the first timed operation
}

// laplaceCountQuery releases one noised count.
func laplaceCountQuery(eps float64) string {
	return fmt.Sprintf("hist = sum(db);\noutput(declassify(laplace(hist[0], %g)));", eps)
}

// newCollectWide: many devices, a wide row, a single Laplace release — all
// encryption, proofs, folding and audit, and not one MPC round.
func newCollectWide(seed int64, n, c, replay int) *runWL {
	data, hist := uniformData(rand.New(rand.NewSource(seed)), n, c)
	bound := laplaceBound(laplaceEps, checkFailure)
	return &runWL{
		sh: shape{n: n, c: c, committee: 5, keyBits: 512, decrypts: 1}, seed: seed,
		query: laplaceCountQuery(laplaceEps), data: data, replay: replay,
		check: func(res *runtime.Result) error {
			if res.Accepted != n {
				return fmt.Errorf("accepted %d inputs, want %d", res.Accepted, n)
			}
			if len(res.Outputs) != 1 {
				return fmt.Errorf("released %d outputs, want 1", len(res.Outputs))
			}
			if got := res.Outputs[0].Float(); math.Abs(got-float64(hist[0])) > bound {
				return fmt.Errorf("released count %g is more than %g from the true count %d", got, bound, hist[0])
			}
			return nil
		},
	}
}

// newCommitteeDeep: few devices, top-k by repeated Gumbel arg-max — key
// generation, hand-offs, decryption into shares and thousands of MPC
// rounds, with collection a small share.
func newCommitteeDeep(seed int64, n, c, k, replay int) (*runWL, error) {
	data, top, gap, err := plantedTopK(rand.New(rand.NewSource(seed)), n, c, k)
	if err != nil {
		return nil, err
	}
	if need := topKMinEpsilon(c, k, gap, checkFailure); topKEps < need {
		return nil, fmt.Errorf("committee-deep: gap %d needs ε ≥ %.2f per round, have %g", gap, need, topKEps)
	}
	sort.Ints(top)
	query := fmt.Sprintf("hist = sum(db);\nbest = topk(hist, %d, %g);\nfor i = 0 to %d do\n  output(best[i]);\nendfor;", k, topKEps, k-1)
	return &runWL{
		sh: shape{n: n, c: c, committee: 5, keyBits: 512, decrypts: c}, seed: seed,
		query: query, data: data, replay: replay,
		check: func(res *runtime.Result) error {
			if res.Accepted != n {
				return fmt.Errorf("accepted %d inputs, want %d", res.Accepted, n)
			}
			got := make([]int, len(res.Outputs))
			for i, o := range res.Outputs {
				got[i] = int(o.Int())
			}
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(top) {
				return fmt.Errorf("released top-%d %v, planted %v", k, got, top)
			}
			return nil
		},
	}, nil
}

func (w *runWL) clients() int { return 1 }

func (w *runWL) setup(c opCtx) error {
	done := c.span("runtime.NewDeployment")
	dep, err := runtime.NewDeployment(runtime.Config{
		N: w.sh.n, Categories: w.sh.c, CommitteeSize: w.sh.committee, KeyBits: w.sh.keyBits,
		Seed: w.seed, BudgetEpsilon: hugeBudget,
		Data: func(device int) int { return w.data[device] },
	})
	done()
	if err != nil {
		return err
	}
	w.dep = dep
	if err := w.op(c); err != nil {
		return fmt.Errorf("warm-up operation: %w", err)
	}
	w.base = dep.Metrics
	return nil
}

func (w *runWL) teardown() error {
	w.dep = nil
	return nil
}

func (w *runWL) verify() error { return nil }

func (w *runWL) op(c opCtx) error {
	done := c.span("runtime.Run")
	res, err := w.dep.Run(w.query, runtime.RunOptions{})
	done()
	if err != nil {
		return err
	}
	return w.check(res)
}

func (w *runWL) layers(tr *tracer, rs *runStats, m map[string]float64) error {
	c := opCtx{tr: tr, parent: tr.begin("replay", 0, 0), speed: &rs.speed}
	defer tr.end(c.parent)
	start := time.Now()
	lc, err := replayRun(c, w.query, w.sh, w.replay)
	if err != nil {
		return err
	}
	lc.unitMetrics(m, w.sh)
	ops := float64(len(rs.ops))
	runtimeMetrics(m, tr.snapshot(), w.sh, delta(w.dep.Metrics, w.base), ops, lc,
		rs.speed.factor(start, time.Now()), rs.cpu.Seconds()/ops*rs.opSpeed)
	return nil
}

// delta is the counters one stretch of operations added.
func delta(after, before runtime.Metrics) runtime.Metrics {
	d := after
	d.DeviceBytesSent -= before.DeviceBytesSent
	d.AggregatorBytes -= before.AggregatorBytes
	d.CommitteeBytes -= before.CommitteeBytes
	d.MPCRounds -= before.MPCRounds
	d.ZKPsVerified -= before.ZKPsVerified
	d.ZKPsRejected -= before.ZKPsRejected
	d.AuditsServed -= before.AuditsServed
	d.CommitteesFormed -= before.CommitteesFormed
	d.MPCComparisons -= before.MPCComparisons
	d.VSRTransfers -= before.VSRTransfers
	return d
}

// runtimeMetrics fills the runtime.* and mpc.* count metrics from the
// exact counters ops operations added, the span-derived times, and the CPU
// attribution (cpuPerOp is the measured CPU per operation at reference
// speed).
func runtimeMetrics(m map[string]float64, spans []span, sh shape, d runtime.Metrics, ops float64, lc *layerCosts, replaySpeed, cpuPerOp float64) {
	m["runtime.new_deployment_ms"] = median(durations(spans, "runtime.NewDeployment"))
	m["runtime.run_ms"] = median(durations(spans, "runtime.Run"))
	m["runtime.device_bytes_per_device"] = float64(d.DeviceBytesSent) / ops / float64(sh.n)
	m["runtime.aggregator_bytes_per_op"] = float64(d.AggregatorBytes) / ops
	m["runtime.committee_bytes_per_op"] = float64(d.CommitteeBytes) / ops
	m["runtime.committees_formed_per_op"] = float64(d.CommitteesFormed) / ops
	m["runtime.vsr_transfers_per_op"] = float64(d.VSRTransfers) / ops
	m["runtime.zkps_verified_per_op"] = float64(d.ZKPsVerified) / ops
	m["runtime.zkps_rejected_per_op"] = float64(d.ZKPsRejected) / ops
	m["runtime.audits_served_per_op"] = float64(d.AuditsServed) / ops
	m["mpc.rounds_per_op"] = float64(d.MPCRounds) / ops
	m["mpc.comparisons_per_op"] = float64(d.MPCComparisons) / ops
	verified := float64(d.ZKPsVerified) / ops
	attribute(m, sh, opCounts{
		accepted:  verified - float64(d.ZKPsRejected)/ops,
		proofs:    verified,
		transfers: float64(d.VSRTransfers) / ops,
		rounds:    float64(d.MPCRounds) / ops,
	}, lc, replaySpeed, cpuPerOp)
}
