package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"arboretum/internal/faults"
	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/privacy"
	"arboretum/internal/vsr"
)

// The chaos suite drives full end-to-end queries under seeded fault
// injection (docs/FAULTS.md) and asserts the fail-closed contract: every run
// either completes with a correct, in-budget answer, or returns one of the
// runtime's typed errors — never a silently wrong or budget-violating
// result. Every schedule is a pure function of its plan seed, so a failing
// seed reported by `go test` replays bit-for-bit.

// chaosData pins a seed-independent distribution over 4 categories:
// 24 devices in category 1, 16 in category 3, 4 each in categories 0 and 2.
// Category 1 wins top-1 by a margin of 8; {1, 3} win top-2 by 12.
func chaosData(i int) int {
	switch r := i % 12; {
	case r <= 5:
		return 1
	case r <= 9:
		return 3
	case r == 10:
		return 0
	default:
		return 2
	}
}

const chaosN = 48

// chaosDeployment uses the default ingest shape: 8 shards of 6 devices, one
// batch each.
func chaosDeployment(t *testing.T, plan *faults.Plan, seed int64) *Deployment {
	t.Helper()
	return chaosShapedDeployment(t, plan, seed, 0, 0)
}

// chaosStreamDeployment cuts the same population into 4 shards × 2 batches,
// so shard crashes land mid-stream, after a committed checkpoint.
func chaosStreamDeployment(t *testing.T, plan *faults.Plan, seed int64) *Deployment {
	t.Helper()
	return chaosShapedDeployment(t, plan, seed, 4, 8)
}

func chaosShapedDeployment(t *testing.T, plan *faults.Plan, seed int64, shards, batch int) *Deployment {
	t.Helper()
	d, err := NewDeployment(Config{
		N: chaosN, Categories: 4, CommitteeSize: 5, Seed: seed, KeyBits: 256,
		BudgetEpsilon: 1000, Data: chaosData, Faults: plan,
		IngestShards: shards, IngestBatch: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// chaosDropped recomputes, from the plan alone, which devices the schedule
// drops (all upload attempts time out) — the same pure function the runtime
// evaluates, so the test can derive the fault-free reference answer.
func chaosDropped(p *faults.Plan) map[int]bool {
	out := map[int]bool{}
	for id := 0; id < chaosN; id++ {
		dropped := true
		for attempt := 0; attempt < uploadBackoff.attempts; attempt++ {
			if !p.Fires(faults.UploadTimeout, id, attempt) {
				dropped = false
				break
			}
		}
		if dropped {
			out[id] = true
		}
	}
	return out
}

// chaosCounts is the per-category histogram over the devices that survive
// the schedule's upload faults.
func chaosCounts(p *faults.Plan) [4]int {
	var counts [4]int
	dropped := chaosDropped(p)
	for i := 0; i < chaosN; i++ {
		if !dropped[i] {
			counts[chaosData(i)]++
		}
	}
	return counts
}

// top2 returns the two highest-count categories and the margins protecting
// them (winner over runner-up, runner-up over third).
func top2(counts [4]int) (first, second, margin1, margin2 int) {
	order := []int{0, 1, 2, 3}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if counts[order[j]] > counts[order[i]] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	return order[0], order[1],
		counts[order[0]] - counts[order[1]],
		counts[order[1]] - counts[order[2]]
}

// chaosShape is one query shape of the sweep; check validates a completed
// run's outputs against the plan-derived reference answer.
type chaosShape struct {
	name  string
	src   string
	check func(t *testing.T, p *faults.Plan, outputs []fixed.Fixed)
}

// chaosMargin is the noise margin below which selection shapes skip the
// exactness check: with ε=6 the Gumbel scale is at most 2·sens/ε ≤ 2/3, so a
// margin of 6 flips with probability ~1/(1+e^9) — negligible over the sweep.
const chaosMargin = 6

var chaosShapes = []chaosShape{
	{
		name: "count",
		src: `aggr = sum(db);
noised = laplace(aggr[0], 5.0);
output(declassify(noised));`,
		check: func(t *testing.T, p *faults.Plan, outputs []fixed.Fixed) {
			counts := chaosCounts(p)
			got := outputs[0].Float()
			want := float64(counts[0])
			if got < want-15 || got > want+15 {
				t.Errorf("count = %g, fault-free reference %g", got, want)
			}
		},
	},
	{
		name: "top1",
		src: `aggr = sum(db);
best = em(aggr, 6.0);
output(best);`,
		check: func(t *testing.T, p *faults.Plan, outputs []fixed.Fixed) {
			first, _, m1, _ := top2(chaosCounts(p))
			if m1 < chaosMargin {
				return
			}
			if got := outputs[0].Int(); got != int64(first) {
				t.Errorf("top1 = %d, want %d (margin %d)", got, first, m1)
			}
		},
	},
	{
		name: "top2",
		src: `aggr = sum(db);
top = topk(aggr, 2, 6.0);
output(top[0]);
output(top[1]);`,
		check: func(t *testing.T, p *faults.Plan, outputs []fixed.Fixed) {
			first, second, m1, m2 := top2(chaosCounts(p))
			if m1 < chaosMargin || m2 < chaosMargin {
				return
			}
			if got := outputs[0].Int(); got != int64(first) {
				t.Errorf("top2[0] = %d, want %d", got, first)
			}
			if got := outputs[1].Int(); got != int64(second) {
				t.Errorf("top2[1] = %d, want %d", got, second)
			}
		},
	},
}

// chaosTypedErr reports whether a failed run failed *closed*: the error must
// match one of the runtime's typed failure modes.
func chaosTypedErr(err error) bool {
	for _, target := range []error{
		ErrCommitteeBroken, ErrCommitteeDegraded, ErrNoSpareCommittee,
		ErrHandoffFailed, ErrShardFailed, ErrNoValidInputs,
		vsr.ErrInsufficientShares,
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

// chaosCertificate runs each shape once without faults to learn its
// certificate — its ε is the only amount any faulty run may charge.
func chaosCertificate(t *testing.T, src string) *privacy.Certificate {
	t.Helper()
	d := chaosDeployment(t, nil, 42)
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatalf("fault-free baseline failed: %v", err)
	}
	return res.Certificate
}

// assertBudget enforces the no-double-spend invariant for one run: the
// deployment charged either nothing (rejected before authorization) or
// exactly one certificate — regardless of how many retries, re-formations,
// and re-deals recovery went through.
func assertBudget(t *testing.T, d *Deployment, certEps float64, label string) {
	t.Helper()
	remaining, _ := d.Budget.Remaining()
	spent := d.cfg.BudgetEpsilon - remaining
	if q := d.Budget.Queries(); q > 1 {
		t.Errorf("%s: %d budget charges for one run", label, q)
	}
	if !(almostEq(spent, 0) || almostEq(spent, certEps)) {
		t.Errorf("%s: spent ε=%g, want 0 or %g", label, spent, certEps)
	}
}

// assertSpentCovered is the tally property: at every call site, the ε a run
// released — counted at each open or decrypt of a noised value, failed
// vignette attempts included — is within what the certificate charged
// there, Epsilon × Invocations.
func assertSpentCovered(t *testing.T, cert *privacy.Certificate, spent map[lang.Pos]float64, label string) {
	t.Helper()
	charged := map[lang.Pos]float64{}
	for _, m := range cert.Mechanisms {
		charged[m.Pos] = m.Epsilon * float64(m.Invocations)
	}
	for pos, eps := range spent {
		if eps > charged[pos]*(1+1e-9) {
			t.Errorf("%s: call site %v released ε = %g, the certificate charged %g", label, pos, eps, charged[pos])
		}
	}
}

func almostEq(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// chaosSweep is the acceptance sweep: chaosSchedules × 3 shapes end-to-end
// runs with every runtime fault kind armed. Every run completes correctly
// (per the plan-derived reference) or fails closed with a typed error, never
// double-charges the budget, and never releases more ε at a call site than
// the certificate charged there; at least one schedule must complete and at
// least one must fire a shard crash.
func chaosSweep(t *testing.T, seedBase uint64, deploy func(*testing.T, *faults.Plan, int64) *Deployment) {
	certs := map[string]*privacy.Certificate{}
	for _, shape := range chaosShapes {
		certs[shape.name] = chaosCertificate(t, shape.src)
	}
	// Every (schedule, shape) run is an independent deployment, so the sweep
	// fans out as parallel subtests; the tallies are checked by the cleanup
	// hook once they all finish.
	var mu sync.Mutex
	completed, failedClosed, crashed := 0, 0, 0
	t.Cleanup(func() {
		t.Logf("chaos sweep: %d completed, %d failed closed, %d runs saw shard crashes",
			completed, failedClosed, crashed)
		if completed == 0 {
			t.Error("no schedule completed — rates are too hot to exercise recovery")
		}
		if crashed == 0 {
			t.Error("no schedule fired a shard crash — the ShardCrash injection point is dead")
		}
	})
	for s := 0; s < chaosSchedules; s++ {
		for _, shape := range chaosShapes {
			s, shape := s, shape
			t.Run(fmt.Sprintf("schedule%d/%s", s, shape.name), func(t *testing.T) {
				t.Parallel()
				plan := faults.New(seedBase+uint64(s)).
					SetRate(faults.UploadTimeout, 0.08).
					SetRate(faults.MemberDropout, 0.002).
					SetRate(faults.DealerFailure, 0.08).
					SetRate(faults.ShardCrash, 0.25)
				d := deploy(t, plan, 42)
				res, err := d.Run(shape.src, RunOptions{})
				assertBudget(t, d, certs[shape.name].Epsilon, shape.name)
				assertSpentCovered(t, certs[shape.name], d.spent, shape.name)
				mu.Lock()
				if d.Metrics.ShardCrashes > 0 {
					crashed++
				}
				if err != nil {
					failedClosed++
				} else {
					completed++
				}
				mu.Unlock()
				if err != nil {
					if !chaosTypedErr(err) {
						t.Errorf("untyped failure: %v", err)
					}
					return
				}
				shape.check(t, plan, res.Outputs)
			})
		}
	}
}

// The one sweep runs at two ingest shapes (see chaos_norace_test.go for its
// size): one-batch shards, where a crash restores an empty checkpoint, and
// multi-batch shards, where it restores a committed one.
func TestChaosSweep(t *testing.T)       { chaosSweep(t, 1000, chaosDeployment) }
func TestChaosStreamSweep(t *testing.T) { chaosSweep(t, 2000, chaosStreamDeployment) }

// TestChaosReplayDeterminism: the same plan seed replays bit-for-bit — same
// outputs, same fired-fault log (coordinates and notes), same recovery
// counters, same MPC round count, same error. Byte totals are excluded:
// ciphertext lengths come from crypto/rand, which never reaches the
// schedule, the released values, or the round structure.
func TestChaosReplayDeterminism(t *testing.T) {
	type trace struct {
		outputs []fixed.Fixed
		errText string
		fired   []faults.Fault
		rounds  int
		metrics [11]int
	}
	run := func() trace {
		plan := faults.New(7).
			SetRate(faults.UploadTimeout, 0.15).
			SetRate(faults.MemberDropout, 0.004).
			SetRate(faults.DealerFailure, 0.2).
			SetRate(faults.ShardCrash, 0.3)
		d := chaosDeployment(t, plan, 42)
		res, err := d.Run(chaosShapes[1].src, RunOptions{})
		m := d.Metrics
		tr := trace{
			fired:  plan.Fired(),
			rounds: m.MPCRounds,
			metrics: [11]int{
				m.UploadTimeouts, m.UploadRetries, m.UploadsDropped,
				m.MemberDropouts, m.Reformations, m.DealerFailures,
				m.VSRRedeals, m.ShardCrashes, m.ShardResumes,
				m.VignetteRetries, int(m.BackoffSimulated),
			},
		}
		if err != nil {
			tr.errText = err.Error()
		} else {
			tr.outputs = res.Outputs
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
}

// TestChaosCrashResumeAudit: a forced crash in a shard's second batch
// resumes from the committed checkpoint of its first — re-verified against
// the recorded commitment — the query completes, and the audit passes over
// every batch: the checkpoint the shard resumed from is the same commitment
// the devices audit.
func TestChaosCrashResumeAudit(t *testing.T) {
	plan := faults.New(11).ForceAt(faults.ShardCrash, 1, 1, 0)
	d := chaosStreamDeployment(t, plan, 42)
	res, err := d.Run(chaosShapes[0].src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Metrics.ShardCrashes != 1 || d.Metrics.ShardResumes != 1 {
		t.Errorf("crashes=%d resumes=%d, want 1/1", d.Metrics.ShardCrashes, d.Metrics.ShardResumes)
	}
	if fired := plan.Fired(); len(fired) != 1 || !reflect.DeepEqual(fired[0].Idx, []int{1, 1, 0}) {
		t.Errorf("fired log %v, want one shard crash at [1 1 0]", fired)
	}
	// 4 shards × 2 batches, all audited, none failing.
	if d.Metrics.AuditsServed != 8 || d.Metrics.AuditFailures != 0 {
		t.Errorf("audits served=%d failures=%d, want 8/0",
			d.Metrics.AuditsServed, d.Metrics.AuditFailures)
	}
	got, want := res.Outputs[0].Float(), 4.0
	if got < want-15 || got > want+15 {
		t.Errorf("count = %g, want ≈%g", got, want)
	}
}

// TestChaosTotalDropoutFailsClosed: a member dropout every single MPC round
// breaks every committee the pool can offer; the run must fail with the
// degraded/exhausted typed errors and release nothing.
func TestChaosTotalDropoutFailsClosed(t *testing.T) {
	plan := faults.New(3).SetRate(faults.MemberDropout, 1)
	d := chaosDeployment(t, plan, 42)
	res, err := d.Run(chaosShapes[1].src, RunOptions{})
	if err == nil {
		t.Fatalf("run completed under total dropout: %+v", res.Outputs)
	}
	if !errors.Is(err, ErrCommitteeDegraded) && !errors.Is(err, ErrNoSpareCommittee) &&
		!errors.Is(err, ErrCommitteeBroken) {
		t.Errorf("unexpected failure mode: %v", err)
	}
	assertBudget(t, d, chaosCertificate(t, chaosShapes[1].src).Epsilon, "total dropout")
}

// TestTopKRetryOpensKWinners: a member dropout in the second round of a top2
// vignette degrades the committee after the first round's winner was opened.
// The retry on a re-formed committee resumes after that winner, so the
// vignette opens exactly k = 2 winners — 2ε released, not the 3ε a re-run of
// both rounds would open — and still releases the true top two.
func TestTopKRetryOpensKWinners(t *testing.T) {
	// The vignette's MPC rounds: 4 to share the decrypted counts, then one
	// Gumbel argmax per topk round; the dropout hits the first round of the
	// second.
	probe := newBareCommittee(t, 5, 1)
	scores := shareScores(probe.engine, make([]int64, 4))
	before := probe.engine.Stats().Rounds
	if _, err := probe.gumbelArgmax(scores, 1, 1); err != nil {
		t.Fatal(err)
	}
	round := 4 + probe.engine.Stats().Rounds - before
	plan := faults.New(1).ForceAt(faults.MemberDropout, 0, 0, round)
	d := chaosDeployment(t, plan, 42)
	res, err := d.Run(chaosShapes[2].src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Metrics.MemberDropouts != 1 || d.Metrics.VignetteRetries != 1 {
		t.Fatalf("dropouts=%d retries=%d, want 1/1", d.Metrics.MemberDropouts, d.Metrics.VignetteRetries)
	}
	use := res.Certificate.Mechanisms[0]
	if got, want := res.Spent[use.Pos], 2*use.CallEpsilon; got != want {
		t.Errorf("top2 opened ε = %g in all, want %g (two winners at ε = %g)", got, want, use.CallEpsilon)
	}
	first, second, _, _ := top2(chaosCounts(plan))
	if got := [2]int64{res.Outputs[0].Int(), res.Outputs[1].Int()}; got != [2]int64{int64(first), int64(second)} {
		t.Errorf("top2 released %v, want [%d %d]", got, first, second)
	}
}

// TestChaosTotalDealerFailureFailsClosed: when every dealer vanishes during
// every hand-off attempt, the hand-off fails with the typed error chain
// ErrHandoffFailed → vsr.ErrInsufficientShares.
func TestChaosTotalDealerFailureFailsClosed(t *testing.T) {
	plan := faults.New(5).SetRate(faults.DealerFailure, 1)
	d := chaosDeployment(t, plan, 42)
	_, err := d.Run(chaosShapes[0].src, RunOptions{})
	if err == nil {
		t.Fatal("run completed with every dealer failing")
	}
	if !errors.Is(err, ErrHandoffFailed) {
		t.Errorf("want ErrHandoffFailed, got %v", err)
	}
	if !errors.Is(err, vsr.ErrInsufficientShares) {
		t.Errorf("want vsr.ErrInsufficientShares in the chain, got %v", err)
	}
}

// TestChaosTotalUploadTimeoutFailsClosed: when every upload attempt times
// out, collection fails closed with ErrNoValidInputs.
func TestChaosTotalUploadTimeoutFailsClosed(t *testing.T) {
	plan := faults.New(9).SetRate(faults.UploadTimeout, 1)
	d := chaosDeployment(t, plan, 42)
	_, err := d.Run(chaosShapes[0].src, RunOptions{})
	if !errors.Is(err, ErrNoValidInputs) {
		t.Errorf("want ErrNoValidInputs, got %v", err)
	}
	if d.Metrics.UploadsDropped != chaosN {
		t.Errorf("dropped %d devices, want %d", d.Metrics.UploadsDropped, chaosN)
	}
}

// TestChaosDealerFailureRecovers: with a moderate dealer-failure rate the
// hand-off re-deals from the surviving share-holders and the query still
// completes correctly.
func TestChaosDealerFailureRecovers(t *testing.T) {
	plan := faults.New(21).SetRate(faults.DealerFailure, 0.3)
	d := chaosDeployment(t, plan, 42)
	res, err := d.Run(chaosShapes[0].src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Metrics.DealerFailures == 0 {
		t.Error("schedule injected no dealer failures; pick a different seed")
	}
	got, want := res.Outputs[0].Float(), 4.0
	if got < want-15 || got > want+15 {
		t.Errorf("count = %g, want ≈%g", got, want)
	}
}
