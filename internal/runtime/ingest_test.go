package runtime

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"os"
	"reflect"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/fixed"
	"arboretum/internal/merkle"
	"arboretum/internal/planner"
	"arboretum/internal/zkp"
)

// --- virtual-population helpers ---

var (
	ingestKeyOnce sync.Once
	ingestTestKey *ahe.PrivateKey
	ingestKeyErr  error
)

// ingestKey caches one small Paillier key across the virtual-population
// tests; keygen would otherwise dominate every test body.
func ingestKey(t testing.TB) *ahe.PrivateKey {
	t.Helper()
	ingestKeyOnce.Do(func() {
		ingestTestKey, ingestKeyErr = ahe.GenerateKey(rand.Reader, 256)
	})
	if ingestKeyErr != nil {
		t.Fatal(ingestKeyErr)
	}
	return ingestTestKey
}

// decryptSums decrypts a combined vector of packed sums and unpacks it into
// per-cell counts.
func decryptSums(t *testing.T, sk *ahe.PrivateKey, codec *ahe.Packing, sums []*ahe.Ciphertext) []int64 {
	t.Helper()
	pts := make([]*big.Int, len(sums))
	for k, ct := range sums {
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		pts[k] = m
	}
	out, err := codec.Unpack(pts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// ingestHistogram asserts the decrypted sums equal the population's exact
// per-category histogram — the strongest form of the no-double-count
// invariant: any dropped or twice-folded upload shifts a count by ≥1.
func ingestHistogram(t *testing.T, sk *ahe.PrivateKey, pop *virtualPopulation, res *ingestResult) {
	t.Helper()
	got := decryptSums(t, sk, pop.codec, res.sums)
	want := pop.histogram()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decrypted sums %v, exact histogram %v", got, want)
	}
}

// TestVirtualIngestExactHistogram: a fault-free sharded ingest over a virtual
// population accepts every device exactly once — the decrypted sums equal the
// exact histogram — commits one leaf per batch, and the harness's sampled
// audit (first, middle, last batch of each shard) passes over every shard.
func TestVirtualIngestExactHistogram(t *testing.T) {
	sk := ingestKey(t)
	pop := newVirtualPopulation(99, 2000, 8)
	res, err := virtualIngest(pop, &sk.PublicKey, 1, 8, 64, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.accepted != pop.n {
		t.Fatalf("accepted %d of %d devices", res.accepted, pop.n)
	}
	ingestHistogram(t, sk, pop, res)
	// 8 shards × 250 devices = 4 batches each: 32 committed leaves
	// (sha256.Size bytes each in the shards' flat buffers).
	var leaves int
	for _, sr := range res.shards {
		leaves += len(sr.leaves) / 32
	}
	if leaves != 32 || res.tree == nil {
		t.Fatalf("committed %d batch leaves (tree=%v), want 32", leaves, res.tree != nil)
	}
	var m Metrics
	if err := auditIngest(&sk.PublicKey, res, &m); err != nil {
		t.Fatalf("audit failed on an honest run: %v", err)
	}
	if m.AuditsServed != 24 || m.AuditFailures != 0 {
		t.Fatalf("audits served=%d failures=%d, want 24/0 (3 per shard)", m.AuditsServed, m.AuditFailures)
	}
}

// TestVirtualIngestCrashResumeExact: a forced shard crash restores the
// batch-boundary checkpoint and refolds only the in-flight batch; the final
// counts are exactly the histogram, so no device was lost or double-counted.
func TestVirtualIngestCrashResumeExact(t *testing.T) {
	sk := ingestKey(t)
	pop := newVirtualPopulation(99, 2000, 8)
	plan := faults.New(1).Force(faults.ShardCrash, 2)
	res, err := virtualIngest(pop, &sk.PublicKey, 2, 8, 64, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c, r := res.shards[2].crashes, res.shards[2].resumes; c != 1 || r != 1 {
		t.Fatalf("shard 2 crashes=%d resumes=%d, want 1/1", c, r)
	}
	ingestHistogram(t, sk, pop, res)
}

// TestVirtualIngestCrashScheduleExact sweeps seeded random crash schedules:
// every run either completes with the exact histogram (crashes recovered,
// nothing double-counted) or fails closed with ErrShardFailed. At least one
// schedule must crash and recover, and at least one must complete.
func TestVirtualIngestCrashScheduleExact(t *testing.T) {
	sk := ingestKey(t)
	pop := newVirtualPopulation(5, 1000, 6)
	crashes, resumes, completed := 0, 0, 0
	for seed := uint64(30); seed < 36; seed++ {
		plan := faults.New(seed).SetRate(faults.ShardCrash, 0.15)
		res, err := virtualIngest(pop, &sk.PublicKey, seed, 8, 32, plan, nil)
		if err != nil {
			if !errors.Is(err, ErrShardFailed) {
				t.Fatalf("seed %d: untyped failure: %v", seed, err)
			}
			continue
		}
		completed++
		for _, sr := range res.shards {
			crashes += sr.crashes
			resumes += sr.resumes
		}
		ingestHistogram(t, sk, pop, res)
	}
	if completed == 0 {
		t.Fatal("no schedule completed — the crash rate is too hot to test recovery")
	}
	if crashes == 0 || resumes == 0 {
		t.Fatalf("schedules fired %d crashes (%d resumes); want both > 0", crashes, resumes)
	}
}

// TestVirtualIngestTotalCrashFailsClosed: when every fold attempt crashes,
// the shard exhausts its retry budget and the ingest fails closed with the
// typed error — it never returns partial sums.
func TestVirtualIngestTotalCrashFailsClosed(t *testing.T) {
	sk := ingestKey(t)
	pop := newVirtualPopulation(99, 500, 4)
	plan := faults.New(9).SetRate(faults.ShardCrash, 1)
	res, err := virtualIngest(pop, &sk.PublicKey, 3, 4, 32, plan, nil)
	if err == nil {
		t.Fatalf("ingest completed under total crash: accepted=%d", res.accepted)
	}
	if !errors.Is(err, ErrShardFailed) {
		t.Fatalf("want ErrShardFailed, got %v", err)
	}
}

// --- shape invariance against the recorded golden table ---

// ingestEqCfg is one run of the equivalence matrix (0 = the default; procs
// is GOMAXPROCS).
type ingestEqCfg struct {
	shards, batch int
	procs         int
	fanout        int
}

func (c ingestEqCfg) String() string {
	return fmt.Sprintf("s%d.b%d.p%d.f%d", c.shards, c.batch, c.procs, c.fanout)
}

// ingestEqRun executes one full query with upload faults armed and returns
// everything the equivalence check compares. Each run gets its own fault
// plan instance (plans accumulate a fired log) with the same plan seed, so
// the upload-fault schedule is identical across the matrix.
func ingestEqRun(t *testing.T, src string, seed int64, cfg ingestEqCfg) (*Result, Metrics, []faults.Fault) {
	t.Helper()
	plan := faults.New(77).SetRate(faults.UploadTimeout, 0.12)
	d, err := NewDeployment(Config{
		N: 64, Categories: 4, CommitteeSize: 5, Seed: seed, KeyBits: 256,
		MaliciousFrac: 0.1, OfflineFrac: 0.1, BudgetEpsilon: 1000, Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	// g = 0.4: churned devices must exercise the ingest's online slicing,
	// but committee composition rides on crypto/rand sortition keys — at the
	// default tolerance a 10%-offline population makes committee viability a
	// per-process dice roll.
	d.g = 0.4
	if cfg.shards > 0 {
		d.shards, d.batch = cfg.shards, cfg.batch
	}
	var res *Result
	withProcs(cfg.procs, func() { res, err = runWith(t, d, src, nil, withFanout(cfg.fanout)) })
	if err != nil {
		t.Fatalf("%v: %v", cfg, err)
	}
	return res, d.Metrics, plan.Fired()
}

// ingestGolden is what one (query, seed) of the matrix released at the
// commit before the materialize-and-audit collection path was deleted,
// recorded from that path: raw fixed-point outputs, accepted/sampled counts,
// the {ZKPsVerified, ZKPsRejected, UploadTimeouts, UploadRetries,
// UploadsDropped} counters, and the fired-fault log as (device, timeouts)
// pairs — every device recovered, none dropped. It pins "same seed ⇒
// bit-identical outputs" across that deletion, not only within this tree.
type ingestGolden struct {
	outputs           []fixed.Fixed
	accepted, sampled int
	counters          [5]int
	recovered         [][2]int
}

func (g ingestGolden) fired() []faults.Fault {
	var out []faults.Fault
	for _, r := range g.recovered {
		out = append(out, faults.Fault{
			Kind: faults.UploadTimeout, Idx: []int{r[0]},
			Note: fmt.Sprintf("device %d recovered after %d timeouts", r[0], r[1]),
		})
	}
	return out
}

// TestIngestEquivalence is the acceptance matrix: collection must release
// byte-identical results — same outputs, same accepted set size, same
// upload/ZKP counters, same fired-fault log — at every worker count, shard
// count, batch size, and combine fanout, and those results must be the ones
// in the golden table, for both the plain and the binned
// (secrecy-of-the-sample) protocols, with malicious devices, churned-offline
// devices, and upload timeouts all armed.
func TestIngestEquivalence(t *testing.T) {
	const count = `aggr = sum(db);
noised = laplace(aggr[0], 5.0);
output(declassify(noised));`
	shapes := []struct {
		name string
		seed int64
		src  string
		want ingestGolden
	}{
		{"count", 42, count, ingestGolden{
			outputs: []fixed.Fixed{1638400}, accepted: 50, sampled: 50,
			counters:  [5]int{56, 6, 9, 9, 0},
			recovered: [][2]int{{5, 1}, {16, 2}, {19, 1}, {25, 1}, {32, 1}, {41, 1}, {42, 1}, {63, 1}},
		}},
		{"count", 7, count, ingestGolden{
			outputs: []fixed.Fixed{1703936}, accepted: 53, sampled: 53,
			counters:  [5]int{59, 6, 10, 10, 0},
			recovered: [][2]int{{5, 1}, {16, 2}, {19, 1}, {25, 1}, {32, 1}, {41, 1}, {42, 1}, {48, 1}, {63, 1}},
		}},
		{"sampled", 42, "sampleUniform(0.5);\n" + count, ingestGolden{
			outputs: []fixed.Fixed{851968}, accepted: 50, sampled: 26,
			counters:  [5]int{56, 6, 9, 9, 0},
			recovered: [][2]int{{5, 1}, {16, 2}, {19, 1}, {25, 1}, {32, 1}, {41, 1}, {42, 1}, {63, 1}},
		}},
	}
	variants := []ingestEqCfg{
		{}, // every default: 8 shards, batch 64, the process's GOMAXPROCS, pairwise combine
		{shards: 1, batch: 8, procs: 1},
		{shards: 3, batch: 8, procs: 4, fanout: 8},
		{shards: 8, batch: 8, procs: 2, fanout: 3},
		{shards: 5, batch: 3, procs: 1, fanout: 2},
		{shards: 16, batch: 1, procs: 4, fanout: 100},
	}
	for _, shape := range shapes {
		t.Run(fmt.Sprintf("%s/seed%d", shape.name, shape.seed), func(t *testing.T) {
			want := shape.want
			for _, cfg := range variants {
				res, m, fired := ingestEqRun(t, shape.src, shape.seed, cfg)
				if !reflect.DeepEqual(res.Outputs, want.outputs) {
					t.Errorf("%v: outputs %v, golden %v", cfg, res.Outputs, want.outputs)
				}
				if res.Accepted != want.accepted || res.Sampled != want.sampled {
					t.Errorf("%v: accepted/sampled %d/%d, golden %d/%d",
						cfg, res.Accepted, res.Sampled, want.accepted, want.sampled)
				}
				got := [5]int{m.ZKPsVerified, m.ZKPsRejected, m.UploadTimeouts, m.UploadRetries, m.UploadsDropped}
				if got != want.counters {
					t.Errorf("%v: zkp/upload counters %v, golden %v", cfg, got, want.counters)
				}
				if !reflect.DeepEqual(fired, want.fired()) {
					t.Errorf("%v: fired-fault log diverged from golden:\n got:    %v\n golden: %v",
						cfg, fired, want.fired())
				}
				if m.AuditFailures != 0 || m.AuditsServed == 0 {
					t.Errorf("%v: audits served=%d failures=%d on an honest run", cfg, m.AuditsServed, m.AuditFailures)
				}
			}
		})
	}
}

// --- the audit: full coverage in Run, every lie caught ---

// auditFixture runs an honest-or-Byzantine ingest over a virtual population
// with every batch retained, the way Run collects.
func auditFixture(t *testing.T, sk *ahe.PrivateKey, pop *virtualPopulation, shards, batch int, sp ingestSpec) *ingestResult {
	t.Helper()
	jobs, err := pop.shardRuns(&sk.PublicKey, 1, shards)
	if err != nil {
		t.Fatal(err)
	}
	sp.pub, sp.width, sp.batch = &sk.PublicKey, pop.codec.Ciphertexts(), batch
	res, err := runShardedIngest(&sp, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAuditedSumCorrectTotals: an honest ingest folds every device exactly
// once, commits one leaf per batch, retains every batch, and every batch
// audits clean.
func TestAuditedSumCorrectTotals(t *testing.T) {
	sk := ingestKey(t)
	pop := newVirtualPopulation(3, 40, 4)
	res := auditFixture(t, sk, pop, 2, 8, ingestSpec{}) // 2 shards × 20 devices = 3 batches each
	ingestHistogram(t, sk, pop, res)
	if n := leafCount(res.tree); n != 6 {
		t.Errorf("tree has %d leaves, want 6", n)
	}
	var m Metrics
	if err := auditIngest(&sk.PublicKey, res, &m); err != nil {
		t.Errorf("honest ingest failed audit: %v", err)
	}
	if m.AuditsServed != 6 || m.AuditFailures != 0 {
		t.Errorf("audits served=%d failures=%d, want 6/0 (every batch)", m.AuditsServed, m.AuditFailures)
	}
}

// TestAuditedSumDetectsCorruption plants the Byzantine shift at each batch
// of each shard in turn. Exactly the corrupted batch fails (the corruption
// carries forward, so later batches recompute consistently from the bad
// partial — the audit localizes the lie to where it was told), which is why
// a sampled audit that skips that batch sees nothing.
func TestAuditedSumDetectsCorruption(t *testing.T) {
	sk := ingestKey(t)
	pop := newVirtualPopulation(3, 64, 2) // category 0 is the mode: cell 0 is never empty
	const shards, batches = 2, 4          // 32 devices per shard at batch 8
	for shard := 0; shard < shards; shard++ {
		for b := 0; b < batches; b++ {
			byz := ingestSpec{byz: true, byzShard: shard, byzBatch: b}
			res := auditFixture(t, sk, pop, shards, 8, byz)
			var m Metrics
			err := auditIngest(&sk.PublicKey, res, &m)
			if err == nil || !strings.Contains(err.Error(), "aggregator misbehavior") {
				t.Errorf("shard %d batch %d: want an aggregator-misbehavior error, got %v", shard, b, err)
			}
			if m.AuditsServed != shards*batches || m.AuditFailures != 1 {
				t.Errorf("shard %d batch %d: audits served=%d failures=%d, want %d/1",
					shard, b, m.AuditsServed, m.AuditFailures, shards*batches)
			}
			byz.sampleAudit = true
			sampled := auditFixture(t, sk, pop, shards, 8, byz)
			missed := auditIngest(&sk.PublicKey, sampled, &Metrics{}) == nil
			if retained := byz.retains(b, batches); missed == retained {
				t.Errorf("shard %d batch %d: sampled audit missed=%v, but the batch is retained=%v",
					shard, b, missed, retained)
			}
		}
	}
}

// TestAuditIndexValidation: an audit against a leaf the commitment tree
// does not have, or the wrong leaf, is rejected.
func TestAuditIndexValidation(t *testing.T) {
	sk := ingestKey(t)
	res := auditFixture(t, sk, newVirtualPopulation(3, 20, 2), 1, 8, ingestSpec{})
	h, fill := sha256.New(), make([]byte, (sk.N2.BitLen()+7)/8)
	rb := res.shards[0].retained[1]
	for _, leaf := range []int{-1, 99, 0} {
		if err := auditIngestBatch(&sk.PublicKey, res.tree, leaf, rb, h, fill); err == nil {
			t.Errorf("batch 1 audited clean against leaf %d", leaf)
		}
	}
	if err := auditIngestBatch(&sk.PublicKey, res.tree, 1, rb, h, fill); err != nil {
		t.Errorf("batch 1 against its own leaf: %v", err)
	}
}

// TestIngestCheckpointChain: between batches a shard's state is the one
// vector its last leaf commits to. On the production path (every batch
// retained, a forced mid-shard crash resumed) and on the harness's sampled
// path, every retained batch's prev hashes to the shard's previous leaf and
// its claimed to its own; under full retention prev IS the previous batch's
// claimed vector, shared rather than copied.
func TestIngestCheckpointChain(t *testing.T) {
	d, err := NewDeployment(Config{
		N: 64, Categories: 4, CommitteeSize: 5, Seed: 3, KeyBits: 256,
		BudgetEpsilon: 1000, Faults: faults.New(1).ForceAt(faults.ShardCrash, 1, 2, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.shards, d.batch = 2, 8 // 32 devices per shard: 4 batches each
	committees, err := d.selectCommittees(1)
	if err != nil {
		t.Fatal(err)
	}
	km, err := d.keygen(committees[0], d.keyEncryptions(false))
	if err != nil {
		t.Fatal(err)
	}
	full, err := d.ingest(km, d.cfg.Categories, 0, func(_ int, dev *Device) int { return dev.Category }, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Metrics.ShardResumes != 1 {
		t.Fatalf("resumes = %d, want the forced crash resumed once", d.Metrics.ShardResumes)
	}
	sk := ingestKey(t)
	sampled, err := virtualIngest(newVirtualPopulation(5, 100, 4), &sk.PublicKey, 1, 2, 8, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		pub      *ahe.PublicKey
		res      *ingestResult
		retained int // per shard
	}{
		{"production", km.pub, full, 4}, // every batch: consecutive retained batches
		{"sampled", &sk.PublicKey, sampled, 3},
	} {
		h, fill := sha256.New(), make([]byte, (tc.pub.N2.BitLen()+7)/8)
		leaf := func(sr *shardResult, b int) string {
			return string(sr.leaves[b*sha256.Size : (b+1)*sha256.Size])
		}
		for s, sr := range tc.res.shards {
			if len(sr.retained) != tc.retained {
				t.Fatalf("%s shard %d: %d batches retained, want %d", tc.name, s, len(sr.retained), tc.retained)
			}
			for i, rb := range sr.retained {
				if got := string(ingestPartialHash(h, rb.claimed, fill, nil)); got != leaf(sr, rb.batch) {
					t.Errorf("%s shard %d batch %d: claimed does not hash to its leaf", tc.name, s, rb.batch)
				}
				if rb.batch == 0 {
					for c, ct := range rb.prev {
						if ct != nil {
							t.Errorf("%s shard %d: batch 0 prev cell %d is not empty", tc.name, s, c)
						}
					}
					continue
				}
				if got := string(ingestPartialHash(h, rb.prev, fill, nil)); got != leaf(sr, rb.batch-1) {
					t.Errorf("%s shard %d batch %d: prev does not hash to leaf %d", tc.name, s, rb.batch, rb.batch-1)
				}
				if i > 0 && sr.retained[i-1].batch == rb.batch-1 && &rb.prev[0] != &sr.retained[i-1].claimed[0] {
					t.Errorf("%s shard %d batch %d: prev is a copy of batch %d's claimed, not the same vector",
						tc.name, s, rb.batch, rb.batch-1)
				}
			}
		}
	}
}

// TestIngestEmptyRejected: with nothing accepted there is nothing to commit
// or audit, and collection fails closed instead of releasing empty sums.
func TestIngestEmptyRejected(t *testing.T) {
	sk := ingestKey(t)
	res := auditFixture(t, sk, newVirtualPopulation(3, 0, 2), 4, 8, ingestSpec{})
	if res.accepted != 0 || res.sums != nil || res.tree != nil {
		t.Errorf("empty ingest produced accepted=%d sums=%v tree=%v", res.accepted, res.sums, res.tree)
	}
	d := smallDeployment(t, 16, 2, func(c *Config) { c.MaliciousFrac = 1 })
	if _, err := d.Run(countSrc, RunOptions{}); !errors.Is(err, ErrNoValidInputs) {
		t.Errorf("all-rejected collection: want ErrNoValidInputs, got %v", err)
	}
}

// TestIngestByzantineDetected is the Run-level half: the Byzantine
// aggregator's batch is a function of the seed, so sweeping seeds plants the
// shift at every batch of every shard, and every run must fail its audit.
func TestIngestByzantineDetected(t *testing.T) {
	const shards, batches = 2, 4 // 64 devices: 32 per shard at batch 8
	for seed := int64(0); seed < shards*batches; seed++ {
		d, err := NewDeployment(Config{
			N: 64, Categories: 4, CommitteeSize: 5, Seed: seed, KeyBits: 256,
			BudgetEpsilon: 1000, ByzantineAggregator: true,
			Data: func(int) int { return 0 }, // cell 0 is never empty
		})
		if err != nil {
			t.Fatal(err)
		}
		d.shards, d.batch = shards, 8
		_, err = d.Run(countSrc, RunOptions{})
		if err == nil {
			t.Fatalf("seed %d: run completed with a Byzantine aggregator", seed)
		}
		if !strings.Contains(err.Error(), "aggregator misbehavior") {
			t.Errorf("seed %d: want an aggregator-misbehavior audit error, got %v", seed, err)
		}
		if d.Metrics.AuditsServed != shards*batches || d.Metrics.AuditFailures != 1 {
			t.Errorf("seed %d: audits served=%d failures=%d, want %d/1",
				seed, d.Metrics.AuditsServed, d.Metrics.AuditFailures, shards*batches)
		}
	}
}

// --- small shapes and the combine fanout ---

// TestIngestSmallShapes: the degenerate shapes the default path must take in
// stride — more shards than online devices (most shards empty), one device
// per shard, and a single one-device shard.
func TestIngestSmallShapes(t *testing.T) {
	for _, shards := range []int{16, 7, 1} {
		d, err := NewDeployment(Config{
			N: 8, Categories: 2, CommitteeSize: 4, Seed: 5, KeyBits: 256,
			BudgetEpsilon: 1000,
			Data:          func(int) int { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		// Two 4-member committees cover all 8 devices; with one device
		// churned away both stay viable at g = 0.4.
		d.g = 0.4
		d.shards, d.batch = shards, 4
		d.Devices[3].Offline = true
		res, err := d.Run(countSrc, RunOptions{})
		if err != nil {
			t.Fatalf("%d shards over 7 online devices: %v", shards, err)
		}
		if res.Accepted != 7 || d.Metrics.ZKPsVerified != 7 {
			t.Errorf("%d shards: accepted %d, verified %d, want 7/7", shards, res.Accepted, d.Metrics.ZKPsVerified)
		}
		// One audit per non-empty batch: 7 one-device shards, or 2 batches.
		wantAudits := map[int]int{16: 7, 7: 7, 1: 2}[shards]
		if d.Metrics.AuditsServed != wantAudits || d.Metrics.AuditFailures != 0 {
			t.Errorf("%d shards: audits served=%d failures=%d, want %d/0",
				shards, d.Metrics.AuditsServed, d.Metrics.AuditFailures, wantAudits)
		}
	}
	sk := ingestKey(t)
	pop := newVirtualPopulation(1, 1, 3)
	res := auditFixture(t, sk, pop, 1, 64, ingestSpec{})
	ingestHistogram(t, sk, pop, res)
	if err := auditIngest(&sk.PublicKey, res, &Metrics{}); err != nil || leafCount(res.tree) != 1 {
		t.Errorf("single one-device shard: audit %v, %d leaves", err, leafCount(res.tree))
	}
}

// TestShardVerifiersAcceptOwnDevices: each shard's verifier accepts an
// honest proof from exactly its own online devices. It refuses an honestly
// keyed proof claiming an offline device's id inside the shard's range, and
// one from a neighbouring shard's device.
func TestShardVerifiersAcceptOwnDevices(t *testing.T) {
	d, err := NewDeployment(Config{
		N: 40, Categories: 2, CommitteeSize: 4, Seed: 9, KeyBits: 256,
		BudgetEpsilon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.shards = 4
	for _, id := range []int{0, 5, 6, 17, 23, 39} {
		d.Devices[id].Offline = true
	}
	var online []*Device
	for _, dev := range d.Devices {
		if !dev.Offline {
			online = append(online, dev)
		}
	}
	codec, err := ingestKey(t).NewPacking(len(d.Devices), 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := d.shardRuns(online, codec, nil)
	shardOf := map[int]int{}
	for s, job := range jobs {
		for _, dev := range job.src.(*deviceSource).devices {
			shardOf[dev.ID] = s
		}
	}
	if len(shardOf) != len(online) {
		t.Fatalf("shards hold %d devices, %d online", len(shardOf), len(online))
	}
	inRangeOffline := 0
	sc := zkp.NewScratch()
	for s, job := range jobs {
		devs := job.src.(*deviceSource).devices
		for _, dev := range d.Devices {
			stmt := zkp.Statement{Device: dev.ID, QueryID: d.queryID, Claim: zkp.Claim{Kind: zkp.ClaimOneHot, VectorLen: 2}}
			var pr zkp.Proof
			if err := zkp.ProveKeyed(sc, dev.Key, stmt, zkp.Witness{Vector: []int64{0, 1}}, &pr); err != nil {
				t.Fatal(err)
			}
			own, ok := shardOf[dev.ID]
			want := ok && own == s
			if dev.Offline && dev.ID > devs[0].ID && dev.ID < devs[len(devs)-1].ID {
				inRangeOffline++
			}
			if got := job.verifier.Verify(&pr); got != want {
				t.Errorf("shard %d verifier: device %d (offline %v) accepted %v, want %v", s, dev.ID, dev.Offline, got, want)
			}
		}
	}
	if inRangeOffline == 0 {
		t.Fatal("no offline device inside a shard's range: the fixture checks nothing")
	}
}

// TestCombineFanoutInvariant: the planner's sum-tree fanout only reshapes the
// shard-combine tree. Every fanout — unset, pairwise, wide, wider than the
// shard count — yields bit-identical sums from the same (partials − 1) × width
// additions, so the combine traffic is the same number of ciphertext
// transfers, each charged the key's wire size.
func TestCombineFanoutInvariant(t *testing.T) {
	sk := ingestKey(t)
	pop := newVirtualPopulation(9, 200, 4)
	const shards = 5
	cell := int64(sk.CiphertextBytes())
	var want []*ahe.Ciphertext
	for _, fanout := range []int{0, 2, 8, shards + 3} {
		res := auditFixture(t, sk, pop, shards, 16, ingestSpec{fanout: fanout})
		adds := int64((shards - 1) * pop.codec.Ciphertexts())
		if want == nil {
			want = res.sums
			ingestHistogram(t, sk, pop, res)
		}
		for c := range want {
			if res.sums[c].C.Cmp(want[c].C) != 0 {
				t.Errorf("fanout %d: cell %d differs from fanout 0", fanout, c)
			}
		}
		if res.combineBytes != adds*cell {
			t.Errorf("fanout %d: combine traffic %d B, want %d transfers of %d B", fanout, res.combineBytes, adds, cell)
		}
	}
}

// --- chaos integration (shard crashes inside full end-to-end queries) ---

// TestChaosStreamReplayDeterminism: a run with mid-stream shard crashes
// replays bit-for-bit from its plan seed at GOMAXPROCS 1 and 8 — outputs,
// fired-fault coordinates, shard crash/resume counters, and error text all
// identical.
func TestChaosStreamReplayDeterminism(t *testing.T) {
	type trace struct {
		outputs  string
		errText  string
		fired    []faults.Fault
		counters [6]int
	}
	run := func(procs int) trace {
		plan := faults.New(13).
			SetRate(faults.UploadTimeout, 0.15).
			SetRate(faults.ShardCrash, 0.3)
		d := chaosStreamDeployment(t, plan, 42)
		var res *Result
		var err error
		withProcs(procs, func() { res, err = d.Run(chaosShapes[1].src, RunOptions{}) })
		m := d.Metrics
		tr := trace{
			fired: plan.Fired(),
			counters: [6]int{
				m.UploadTimeouts, m.UploadsDropped, m.ShardCrashes,
				m.ShardResumes, m.ZKPsVerified, m.ZKPsRejected,
			},
		}
		if err != nil {
			tr.errText = err.Error()
		} else {
			tr.outputs = fmt.Sprint(res.Outputs)
		}
		return tr
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replay diverged across worker counts:\n  1 worker:  %+v\n  8 workers: %+v", a, b)
	}
}

// TestChaosStreamCrashResumeAudit: a forced crash in a shard's first batch —
// nothing committed yet — resumes from the empty checkpoint, the query
// completes with the expected count, and the audit passes over every batch.
func TestChaosStreamCrashResumeAudit(t *testing.T) {
	plan := faults.New(11).Force(faults.ShardCrash, 1)
	d := chaosStreamDeployment(t, plan, 42)
	res, err := d.Run(chaosShapes[0].src, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Metrics.ShardCrashes != 1 || d.Metrics.ShardResumes != 1 {
		t.Errorf("crashes=%d resumes=%d, want 1/1", d.Metrics.ShardCrashes, d.Metrics.ShardResumes)
	}
	// 4 shards × 12 devices at batch 8 = 2 batches per shard: 8 audits, none
	// failing.
	if d.Metrics.AuditsServed != 8 || d.Metrics.AuditFailures != 0 {
		t.Errorf("audits served=%d failures=%d, want 8/0", d.Metrics.AuditsServed, d.Metrics.AuditFailures)
	}
	got, want := res.Outputs[0].Float(), 4.0
	if got < want-15 || got > want+15 {
		t.Errorf("count = %g, want ≈%g", got, want)
	}
}

// --- benchmarks ---

// benchDevices resolves the ARBORETUM_BENCH_DEVICES population knob.
func benchDevices(def int) int {
	if s := os.Getenv("ARBORETUM_BENCH_DEVICES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// reportPerDevice attaches ns/device and B/device to a benchmark from the
// wall clock and the allocator's TotalAlloc delta over the timed section.
func reportPerDevice(b *testing.B, before goruntime.MemStats, devices int) {
	var after goruntime.MemStats
	goruntime.ReadMemStats(&after)
	ops := float64(b.N) * float64(devices)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/device")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/ops, "B/device")
}

// BenchmarkIngest drives the sharded, streaming pipeline over a virtual
// population — the 10^5..10^8-device scaling harness (ARBORETUM_BENCH_DEVICES
// sets the population; docs/INGEST.md). Per-device state derives from the
// population seed inside each shard and uploads fold into pooled
// accumulators, so allocations and live heap stay O(shards × batch) while
// ns/device stays flat: the heap-peak-bytes metric is the flatness evidence.
func BenchmarkIngest(b *testing.B) {
	n := benchDevices(100000)
	sk, err := ahe.GenerateKey(rand.Reader, 512)
	if err != nil {
		b.Fatal(err)
	}
	pop := newVirtualPopulation(7, n, 16)
	if _, err := pop.templatesFor(&sk.PublicKey); err != nil {
		b.Fatal(err) // warm the template cache: setup, not ingest work
	}
	gauge := &heapGauge{}
	var before goruntime.MemStats
	goruntime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := virtualIngest(pop, &sk.PublicKey, uint64(i+1), 0, 0, nil, gauge)
		if err != nil {
			b.Fatal(err)
		}
		if res.accepted != n {
			b.Fatalf("accepted %d of %d devices", res.accepted, n)
		}
	}
	b.StopTimer()
	reportPerDevice(b, before, n)
	b.ReportMetric(float64(gauge.peakBytes()), "heap-peak-bytes")
}

// BenchmarkCollectInputs times the input phase (encrypt + prove for every
// online device, then verify, fold, commit, combine, and audit) through a
// full deployment with real per-device encryption. Run with -cpu 1,4 to
// compare the sequential fallback against the pool; ARBORETUM_BENCH_DEVICES
// resizes the population.
func BenchmarkCollectInputs(b *testing.B) {
	d, err := NewDeployment(Config{
		N: benchDevices(64), Categories: 16, CommitteeSize: 5, Seed: 7,
		BudgetEpsilon: 1e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	committees, err := d.selectCommittees(1)
	if err != nil {
		b.Fatal(err)
	}
	km, err := d.keygen(committees[0], d.keyEncryptions(false))
	if err != nil {
		b.Fatal(err)
	}
	var before goruntime.MemStats
	goruntime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.queryID++ // fresh replay-protection scope per iteration
		if _, err := d.collectInputs(km, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerDevice(b, before, d.cfg.N)
}

// BenchmarkEndToEndGumbelVsExponentiate times one em query end to end under
// each executable em variant (the trade-off of Figure 4): a fresh
// deployment, its own-shape plan with the variant pinned, and the run.
func BenchmarkEndToEndGumbelVsExponentiate(b *testing.B) {
	src := "aggr = sum(db);\nresult = em(aggr, 2.0);\noutput(result);"
	for _, family := range []string{"gumbel", "exponentiate-mpc"} {
		b.Run(family, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := NewDeployment(Config{
					N: 64, Categories: 8, CommitteeSize: 5, Seed: int64(i),
					BudgetEpsilon: 1e9,
				})
				if err != nil {
					b.Fatal(err)
				}
				req := d.PlanRequest(src)
				req.ForceChoices = map[string]string{"em": family}
				p, err := planner.Plan(req)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.RunPlan(p.Plan, src, RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// leafCount is the number of leaves tr commits: the first index Prove
// refuses.
func leafCount(tr *merkle.Tree) int {
	n := 0
	for ; ; n++ {
		if _, err := tr.Prove(n); err != nil {
			return n
		}
	}
}
