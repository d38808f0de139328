package runtime

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"strings"
	"testing"

	"arboretum/internal/ahe"
	"arboretum/internal/mechanism"
	"arboretum/internal/plan"
	"arboretum/internal/planner"
	"arboretum/internal/queries"
)

// smallDeployment returns a deployment small enough for real crypto in
// tests: N devices, C categories, 5-member committees, 512-bit Paillier.
func smallDeployment(t *testing.T, n, categories int, opts ...func(*Config)) *Deployment {
	t.Helper()
	cfg := Config{N: n, Categories: categories, CommitteeSize: 5, Seed: 42}
	for _, o := range opts {
		o(&cfg)
	}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// withProcs runs f at GOMAXPROCS procs (0 keeps the current value), the one
// setting that sizes every internal/parallel pool, and restores the previous
// value. Tests that call it must not call t.Parallel.
func withProcs(procs int, f func()) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
	f()
}

// runWith executes src under the plan Run would make for it on d, after
// change has edited the plan's typed choices or its request has been pinned:
// how a test reaches a variant Run's own planning does not pick.
func runWith(t testing.TB, d *Deployment, src string, force map[string]string, change func(*plan.Plan)) (*Result, error) {
	t.Helper()
	req := d.PlanRequest(src)
	req.ForceChoices = force
	res, err := planner.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if change != nil {
		change(res.Plan)
	}
	return d.RunPlan(res.Plan, src, RunOptions{})
}

// withFanout sets the plan's sum-tree fanout to any value, including ones the
// planner's fanout ladder does not offer.
func withFanout(fanout int) func(*plan.Plan) {
	return func(p *plan.Plan) { p.SumFanout = fanout }
}

// skewedData makes category `mode` the clear winner.
func skewedData(mode, categories int) func(int) int {
	return func(device int) int {
		if device%4 != 0 {
			return mode
		}
		return (device + 1) % categories
	}
}

func TestNewDeploymentValidation(t *testing.T) {
	if _, err := NewDeployment(Config{N: 2, Categories: 4}); err == nil {
		t.Error("tiny N accepted")
	}
	if _, err := NewDeployment(Config{N: 100, Categories: 0}); err == nil {
		t.Error("zero categories accepted")
	}
	if _, err := NewDeployment(Config{N: 100, Categories: 4, CommitteeSize: 90}); err == nil {
		t.Error("oversized committee accepted")
	}
}

// End-to-end top1 (Figure 3's query) with real Paillier, sortition, VSR,
// ZKPs, Merkle audits, and the Gumbel-argmax committee MPC. With a strong
// majority category and ε=0.1 over ~96 votes of margin, the mode wins with
// overwhelming probability.
func TestRunTop1EndToEnd(t *testing.T) {
	const mode = 2
	d := smallDeployment(t, 128, 8, func(c *Config) { c.Data = skewedData(mode, 8) })
	src := `aggr = sum(db);
result = em(aggr, 2.0);
output(result);`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("got %d outputs", len(res.Outputs))
	}
	if got := res.Outputs[0].Int(); got != mode {
		t.Errorf("top1 = %d, want %d", got, mode)
	}
	if res.Accepted != 128 {
		t.Errorf("accepted %d inputs, want 128", res.Accepted)
	}
	if d.Metrics.CommitteesFormed < 2 {
		t.Error("expected at least keygen + ops committees")
	}
	if d.Metrics.VSRTransfers == 0 {
		t.Error("no VSR hand-off recorded")
	}
	if d.Metrics.MPCRounds == 0 {
		t.Error("no MPC rounds recorded")
	}
}

// The exponentiation variant of em (Figure 4 left) must agree with the
// Gumbel variant on a lopsided input.
func TestRunTop1ExponentiateVariant(t *testing.T) {
	const mode = 3
	d := smallDeployment(t, 96, 6, func(c *Config) { c.Data = skewedData(mode, 6) })
	src := `aggr = sum(db);
result = em(aggr, 2.0);
output(result);`
	res, err := runWith(t, d, src, map[string]string{"em": "exponentiate-mpc"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[0].Int(); got != mode {
		t.Errorf("top1(exponentiate) = %d, want %d", got, mode)
	}
}

// TestNoiseScaleFailsClosed: an auction priced in thousands over 8 buckets
// certifies its em at sensitivity 2·7000, where the exponentiate variant's
// rate ε/(2·14000) rounds to 0 in Q30.16 — a uniform draw. Forced to that
// variant the run is refused with ErrNoiseScale before it selects, charges
// or collects anything; under Gumbel the scale 2·14000/ε fits, and it runs.
func TestNoiseScaleFailsClosed(t *testing.T) {
	src := strings.Replace(queries.Auction.Source, "p * atleast[p]", "p * 1000 * atleast[p]", 1)
	d := smallDeployment(t, 64, 8, func(c *Config) { c.BudgetEpsilon = 1e9 })
	if _, err := runWith(t, d, src, map[string]string{"em": "exponentiate-mpc"}, nil); !errors.Is(err, ErrNoiseScale) {
		t.Fatalf("exponentiate: err %v, want ErrNoiseScale", err)
	}
	if len(d.spent) != 0 || d.Budget.Queries() != 0 || d.Metrics.CommitteesFormed != 0 {
		t.Errorf("refused run spent %v, charged %d queries, formed %d committees", d.spent, d.Budget.Queries(), d.Metrics.CommitteesFormed)
	}
	res, err := smallDeployment(t, 64, 8, func(c *Config) { c.BudgetEpsilon = 1e9 }).Run(src, RunOptions{})
	if err != nil {
		t.Fatalf("gumbel: %v", err)
	}
	if m := res.Certificate.Mechanisms[0]; m.Sensitivity != 14000 || res.Plan.EMVariant != mechanism.EMGumbel {
		t.Errorf("ran %+v under %v", m, res.Plan.EMVariant)
	}
	if p := res.Outputs[0].Int(); p < 0 || p > 7 {
		t.Errorf("price %d out of range", p)
	}
}

// Laplace counting query (the cms pattern): the released count must be the
// true count plus bounded noise.
func TestRunLaplaceCount(t *testing.T) {
	d := smallDeployment(t, 100, 1, func(c *Config) { c.Data = func(int) int { return 0 } })
	src := `sketch = sum(db);
noised = laplace(sketch[0], 1.0);
c = declassify(noised);
output(c);`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[0].Float()
	if got < 60 || got > 140 { // 100 ± generous Laplace(1) tail
		t.Errorf("noised count = %g, want ~100", got)
	}
}

// Malicious devices with malformed inputs must be rejected by the ZKP check
// and not corrupt the counts (Section 5.3).
func TestMaliciousInputsRejected(t *testing.T) {
	d := smallDeployment(t, 100, 4, func(c *Config) {
		c.MaliciousFrac = 0.1
		c.Data = func(int) int { return 1 }
	})
	src := `aggr = sum(db);
noised = laplace(aggr[1], 5.0);
output(declassify(noised));`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Metrics.ZKPsRejected != 10 {
		t.Errorf("rejected %d proofs, want 10", d.Metrics.ZKPsRejected)
	}
	if res.Accepted != 90 {
		t.Errorf("accepted %d, want 90", res.Accepted)
	}
	// Count reflects only honest inputs (90), not the inflated uploads.
	got := res.Outputs[0].Float()
	if got < 80 || got > 100 {
		t.Errorf("count = %g, want ~90 (malicious inputs excluded)", got)
	}
}

// A Byzantine aggregator corrupting an intermediate sum must be caught by
// the Merkle audits (Section 5.3).
func TestByzantineAggregatorDetected(t *testing.T) {
	d := smallDeployment(t, 96, 4, func(c *Config) { c.ByzantineAggregator = true })
	src := `aggr = sum(db);
noised = laplace(aggr[0], 1.0);
output(declassify(noised));`
	_, err := d.Run(src, RunOptions{})
	if err == nil {
		t.Fatal("Byzantine aggregator went undetected")
	}
	if !strings.Contains(err.Error(), "misbehavior") {
		t.Errorf("unexpected error: %v", err)
	}
	if d.Metrics.AuditFailures == 0 {
		t.Error("no audit failures recorded")
	}
}

// The planner's sum-tree choice (its outsourcing option) sets the fanout of
// the tree that combines the shard partials; the count must come out the
// same as with the default pairwise combine.
func TestDeviceSumTree(t *testing.T) {
	d := smallDeployment(t, 64, 4, func(c *Config) {
		c.Data = func(i int) int { return i % 4 }
		c.BudgetEpsilon = 100
	})
	src := `aggr = sum(db);
noised = laplace(aggr[0], 50.0);
output(declassify(noised));`
	res, err := runWith(t, d, src, map[string]string{"sum": "device-tree-fanout-8"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[0].Float()
	if got < 14 || got > 18 { // 16 devices in category 0, tiny noise at ε=50
		t.Errorf("tree-summed count = %g, want ~16", got)
	}
}

// Secrecy of the sample: only a fraction of devices upload, and the noised
// count reflects the sample.
func TestSecrecyOfTheSample(t *testing.T) {
	d := smallDeployment(t, 200, 1, func(c *Config) { c.Data = func(int) int { return 0 } })
	src := `sampleUniform(0.25);
aggr = sum(db);
noised = laplace(aggr[0], 5.0);
output(declassify(noised));`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled == 200 || res.Sampled < 10 {
		t.Errorf("sampled %d of 200, want a ~25%% subset", res.Sampled)
	}
	got := res.Outputs[0].Float()
	if got < float64(res.Sampled)-15 || got > float64(res.Sampled)+15 {
		t.Errorf("count %g far from sample size %d", got, res.Sampled)
	}
	// Amplification: the certificate's ε is far below the mechanism's 5.0.
	if res.Certificate.Epsilon >= 5.0 {
		t.Errorf("sampling did not amplify: ε = %g", res.Certificate.Epsilon)
	}
}

// TestSampleUniformSingleSource: the certificate is the one reader of
// sampleUniform that decides anything. The rate Run collects at — a window
// of whole bins, x of 16 — is the rate the certificate amplified ε by, also
// where the analyst's φ is not a multiple of 1/16, and a second call — two
// rates, of which a certifier and a collector could each keep a different
// one — is refused before any budget is charged.
func TestSampleUniformSingleSource(t *testing.T) {
	const tail = `aggr = sum(db);
c = laplace(aggr[0], 1.0);
output(declassify(c));`
	d := smallDeployment(t, 64, 2, func(c *Config) { c.Seed = 3; c.BudgetEpsilon = 100 })

	charged := 0.0
	for _, tc := range []struct{ phi, realized float64 }{
		{0.5, 8.0 / 16},
		{0.1, 2.0 / 16},  // round(1.6) bins
		{0.01, 1.0 / 16}, // round(0.16) is 0, and a window is never empty
	} {
		res, err := d.Run(fmt.Sprintf("sampleUniform(%g);\n", tc.phi)+tail, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Log1p(tc.realized * math.Expm1(1.0))
		if math.Abs(res.Certificate.Epsilon-want) > 1e-12 || res.Certificate.SampleRate != tc.realized {
			t.Errorf("sampleUniform(%g) certifies ε = %g at rate %g, want %g at the window's %g",
				tc.phi, res.Certificate.Epsilon, res.Certificate.SampleRate, want, tc.realized)
		}
		if res.Sampled >= res.Accepted {
			t.Errorf("sampleUniform(%g) sampled %d of %d accepted devices, want a strict subset",
				tc.phi, res.Sampled, res.Accepted)
		}
		charged += want
		if left, _ := d.Budget.Remaining(); math.Abs(left-(100-charged)) > 1e-9 {
			t.Errorf("remaining ε = %g after queries charging %g", left, charged)
		}
	}
	before, _ := d.Budget.Remaining()

	res, err := d.Run("sampleUniform(0.5); sampleUniform(1);\n"+tail, RunOptions{})
	if err == nil {
		t.Fatalf("two calls ran: sampled %d of %d at ε = %g", res.Sampled, res.Accepted, res.Certificate.Epsilon)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "runtime: certification: ") ||
		!strings.Contains(msg, "1:1") || !strings.Contains(msg, "1:21") {
		t.Errorf("refusal %q does not name the stage and both calls", msg)
	}
	if after, _ := d.Budget.Remaining(); after != before {
		t.Errorf("refused query charged ε: %g → %g", before, after)
	}
	if _, err := Certify("sampleUniform(0.5); sampleUniform(1);\n"+tail, 64, 2); err == nil {
		t.Error("Certify priced the two-call program")
	}
}

// topK end to end: the three clear winners must be returned (in some order)
// when ε is large.
func TestRunTopK(t *testing.T) {
	d := smallDeployment(t, 120, 6, func(c *Config) {
		c.Data = func(i int) int {
			switch {
			case i < 60:
				return 1
			case i < 100:
				return 3
			case i < 115:
				return 5
			default:
				return i % 6
			}
		}
	})
	src := `aggr = sum(db);
best = topk(aggr, 3, 3.0);
for i = 0 to 2 do
  output(best[i]);
endfor;`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 3 {
		t.Fatalf("got %d outputs", len(res.Outputs))
	}
	got := map[int64]bool{}
	for _, o := range res.Outputs {
		got[o.Int()] = true
	}
	for _, want := range []int64{1, 3, 5} {
		if !got[want] {
			t.Errorf("top-3 %v missing category %d", res.Outputs, want)
		}
	}
}

// The privacy budget gates queries: a deployment with a tight budget rejects
// the second query.
func TestBudgetExhaustion(t *testing.T) {
	d := smallDeployment(t, 64, 2, func(c *Config) { c.BudgetEpsilon = 1.5 })
	src := `aggr = sum(db);
noised = laplace(aggr[0], 1.0);
output(declassify(noised));`
	if _, err := d.Run(src, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(src, RunOptions{}); err == nil {
		t.Fatal("over-budget query accepted")
	}
}

// Consecutive queries use fresh sortition randomness: the same query twice
// selects (almost surely) different committees.
func TestSortitionRotatesCommittees(t *testing.T) {
	d := smallDeployment(t, 200, 2)
	c1, err := d.selectCommittees(1)
	if err != nil {
		t.Fatal(err)
	}
	d.queryID++
	c2, err := d.selectCommittees(1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range c1[0] {
		if c1[0][i] != c2[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("committees identical across query rounds")
	}
}

// The full median query from the evaluation suite, end to end at small
// scale: the selected bucket must be near the true median.
func TestRunMedianQuery(t *testing.T) {
	const buckets = 8
	d := smallDeployment(t, 128, buckets, func(c *Config) {
		// Values concentrated around bucket 4.
		c.Data = func(i int) int {
			switch {
			case i < 20:
				return 2
			case i < 50:
				return 3
			case i < 95:
				return 4
			case i < 115:
				return 5
			default:
				return 6
			}
		}
	})
	src := `hist = sum(db);
n = len(hist);
rank[0] = hist[0];
for i = 1 to n - 1 do
  rank[i] = rank[i - 1] + hist[i];
endfor;
total = rank[n - 1];
half = 64;
for i = 0 to n - 1 do
  dev[i] = rank[i] - half;
  mag[i] = abs(dev[i]);
  util[i] = 0 - mag[i];
endfor;
m = em(util, 3.0);
output(m);`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[0].Int()
	// True median rank crosses in bucket 4; accept a neighbor.
	if got < 3 || got > 5 {
		t.Errorf("median bucket = %d, want 3..5", got)
	}
}

// hypotest end to end: threshold comparison on the declassified count.
func TestRunHypotest(t *testing.T) {
	d := smallDeployment(t, 100, 1, func(c *Config) { c.Data = func(int) int { return 0 } })
	src := `aggr = sum(db);
count = laplace(aggr[0], 5.0);
c = declassify(count);
reject = 0;
if c > 50 then
  reject = 1;
endif;
output(reject);`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0].Int() != 1 {
		t.Errorf("hypotest reject = %d, want 1 (count ~100 > 50)", res.Outputs[0].Int())
	}
}

// All ten evaluation queries must at least execute end to end at a reduced
// category count (full categorical widths are cost-model territory; the
// runtime proves the code paths).
func TestAllEvaluationQueriesExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("full query sweep is slow")
	}
	for _, q := range queries.All {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			cats := int(q.Categories)
			if cats > 16 {
				cats = 16
			}
			d := smallDeployment(t, 64, cats, func(c *Config) {
				c.Data = func(i int) int { return i % cats }
				c.BudgetEpsilon = 1000
			})
			src := shrinkQuery(q.Source)
			res, err := d.Run(src, RunOptions{})
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			if len(res.Outputs) == 0 {
				t.Errorf("%s produced no outputs", q.Name)
			}
		})
	}
}

// shrinkQuery adapts the evaluation queries' big constants to the small
// deployment (thresholds sized for 10^9 participants).
func shrinkQuery(src string) string {
	src = strings.ReplaceAll(src, "threshold = 500000", "threshold = 30")
	src = strings.ReplaceAll(src, "half = total / 2", "half = 32")
	src = strings.ReplaceAll(src, "-1073741824", "-1024")
	src = strings.ReplaceAll(src, "1073741824", "1024")
	return src
}

// Mechanism calls on fresh ciphertext inputs rotate to new committees with
// VSR hand-offs; shares created by one committee can still meet shares from
// another through the re-sharing transfer (the gap query's pattern).
func TestCommitteeRotationAndTransfer(t *testing.T) {
	d := smallDeployment(t, 160, 8, func(c *Config) {
		c.Data = skewedData(2, 8)
		c.BudgetEpsilon = 100
	})
	src := `aggr = sum(db);
winner = em(aggr, 3.0);
best = max(aggr);
second = max(aggr);
g = laplace(clip(best - second, 0, 1024), 1.0);
output(winner);
output(declassify(g));`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs[0].Int(); got != 2 {
		t.Errorf("winner = %d, want 2", got)
	}
	// best == second here, so the clipped gap is 0 ± Laplace(1/1.0).
	if g := res.Outputs[1].Float(); g < -20 || g > 1044 {
		t.Errorf("gap = %g out of range", g)
	}
	// em + 2×max rotate: more than the 3 baseline hand-offs (keygen→ops and
	// the two key rotations), plus share transfers for best−second.
	if d.Metrics.VSRTransfers < 3 {
		t.Errorf("VSR transfers = %d, want several (rotations + share moves)", d.Metrics.VSRTransfers)
	}
	if d.Metrics.CommitteesFormed < 4 {
		t.Errorf("committees formed = %d, want > 3 with rotation", d.Metrics.CommitteesFormed)
	}
}

// The quantile extension end to end: select the 75th-percentile bucket.
func TestRunQuantileQuery(t *testing.T) {
	const buckets = 8
	d := smallDeployment(t, 128, buckets, func(c *Config) {
		// Uniform-ish data: bucket i holds 16 devices, so the 3/4 quantile
		// rank (96) falls in bucket 5 (ranks 96 cumulative at bucket 5).
		c.Data = func(i int) int { return i / 16 }
		c.BudgetEpsilon = 100
	})
	res, err := d.Run(quantile34, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs[0].Int()
	if got < 4 || got > 6 {
		t.Errorf("75th percentile bucket = %d, want ~5", got)
	}
}

// The bin protocol rejects malicious uploads too: forged proofs over the
// binned layout fail verification, and the window count reflects only
// honest devices.
func TestBinnedMaliciousRejected(t *testing.T) {
	d := smallDeployment(t, 100, 1, func(c *Config) {
		c.MaliciousFrac = 0.1
		c.Data = func(int) int { return 0 }
		c.BudgetEpsilon = 1e9
	})
	src := `sampleUniform(0.5);
aggr = sum(db);
noised = laplace(aggr[0], 5.0);
output(declassify(noised));`
	res, err := d.Run(src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Metrics.ZKPsRejected != 10 {
		t.Errorf("rejected %d binned proofs, want 10", d.Metrics.ZKPsRejected)
	}
	if res.Accepted != 90 {
		t.Errorf("accepted %d, want 90", res.Accepted)
	}
	// The window covers ~half the honest devices.
	got := res.Outputs[0].Float()
	if got < float64(res.Sampled)-15 || got > float64(res.Sampled)+15 {
		t.Errorf("count %g far from window population %d", got, res.Sampled)
	}
}

// Measured traffic must be internally consistent: device uploads account
// for N ciphertext vectors plus proofs, and committee traffic is mirrored
// into the aggregator's forwarding total (the mailbox of Section 5.4).
func TestMetricsConsistency(t *testing.T) {
	const n, cats = 64, 4
	d := smallDeployment(t, n, cats, func(c *Config) { c.BudgetEpsilon = 1e9 })
	src := `aggr = sum(db);
result = em(aggr, 2.0);
output(result);`
	if _, err := d.Run(src, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	m := d.Metrics
	// Each device sends its packed row — ⌈cats/digits⌉ ciphertexts of
	// ~1024/8 bytes each at 512-bit Paillier (n² is 1024 bits) — plus one
	// proof.
	sk, err := ahe.GenerateKey(rand.Reader, 512) // the deployment's key size
	if err != nil {
		t.Fatal(err)
	}
	codec, err := sk.NewPacking(n, cats)
	if err != nil {
		t.Fatal(err)
	}
	perDevice := int64(codec.Ciphertexts()*128 + 256)
	if m.DeviceBytesSent < int64(n)*perDevice/2 || m.DeviceBytesSent > int64(n)*perDevice*2 {
		t.Errorf("device bytes = %d, want ~%d", m.DeviceBytesSent, int64(n)*perDevice)
	}
	if m.CommitteeBytes <= 0 {
		t.Error("no committee traffic recorded")
	}
	if m.AggregatorBytes < m.CommitteeBytes {
		t.Errorf("aggregator forwarding %d should cover committee traffic %d",
			m.AggregatorBytes, m.CommitteeBytes)
	}
	if m.ZKPsVerified != n {
		t.Errorf("verified %d proofs, want %d", m.ZKPsVerified, n)
	}
	if m.AuditsServed == 0 {
		t.Error("no audits served")
	}
}

// quantile34 selects the bucket at the 3/4 quantile of a one-hot value
// domain (the median query with the target moved), with a large ε for a
// deterministic small-scale test.
const quantile34 = `hist = sum(db);
n = len(hist);
rank[0] = hist[0];
for i = 1 to n - 1 do
  rank[i] = rank[i - 1] + hist[i];
endfor;
total = rank[n - 1];
target = total * 3 / 4;
for i = 0 to n - 1 do
  dev[i] = rank[i] - target;
  mag[i] = abs(dev[i]);
  util[i] = 0 - mag[i];
endfor;
q = em(util, 3.0);
output(q);`
