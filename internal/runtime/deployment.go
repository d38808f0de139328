// Package runtime implements Arboretum's execution phase (Section 5): it
// materializes a (scaled-down) deployment of participant devices and an
// aggregator, selects committees by sortition, generates keys in the first
// committee, collects ZKP-validated encrypted inputs, executes the query's
// vignettes with real cryptography (Paillier AHE for aggregation, the
// honest-majority MPC engine for committee vignettes, VSR for hand-offs),
// audits the aggregator with Merkle challenges, and releases the final
// result.
//
// The paper's methodology is to benchmark building blocks and extrapolate to
// 10^9 devices; likewise, the runtime executes deployments of hundreds to
// thousands of real devices end-to-end and the eval package extrapolates
// with the cost model.
//
// # Concurrency
//
// Input collection — encrypting one-hot rows, generating and verifying
// proofs, folding — is embarrassingly parallel across ingest shards, and the
// runtime fans the shards (and the combine tree's groups) out over the
// internal/parallel worker pool (Config.Workers; 0 = auto). A Deployment
// itself is NOT safe for concurrent use: Run mutates shared state (metrics,
// budget, RNG). Determinism is preserved at every worker count because all
// draws from the deployment's seeded RNG happen sequentially on the
// coordinating goroutine before any parallel section starts, the parallel
// sections use only crypto/rand (whose output never reaches the released
// values), and shard results are re-assembled in shard order, which is
// device order. See docs/CONCURRENCY.md.
package runtime

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	//arblint:ignore randsource simulation determinism only; secrets use crypto/rand and noise honors Config.SecureNoise
	mrand "math/rand"
	"time"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
	"arboretum/internal/merkle"
	"arboretum/internal/parallel"
	"arboretum/internal/privacy"
	"arboretum/internal/shamir"
	"arboretum/internal/sortition"
	"arboretum/internal/vsr"
	"arboretum/internal/zkp"
)

// Config shapes a simulated deployment.
type Config struct {
	N             int   // participant devices
	Categories    int   // one-hot width of each device's input
	CommitteeSize int   // committee size (tests use small committees)
	Seed          int64 // deterministic device data and noise
	KeyBits       int   // Paillier modulus size (default 512 for tests)

	// MaliciousFrac of devices submit malformed inputs (without valid
	// proofs); the aggregator must reject them (Section 5.3).
	MaliciousFrac float64

	// ByzantineAggregator makes the aggregator corrupt one intermediate
	// step; device audits must detect it (Section 5.3).
	ByzantineAggregator bool

	// OfflineFrac of devices are unreachable during the query. Committees
	// that lose too many members have their tasks reassigned to the next
	// committee (Section 5.1's churn handling; the tolerated fraction is
	// OfflineTolerance, the paper's g, default 0.15).
	OfflineFrac      float64
	OfflineTolerance float64

	// Data assigns each device its category; nil uses a Zipf-like default.
	Data func(device int) int

	// BudgetEpsilon is the deployment's total privacy budget (default 10).
	BudgetEpsilon float64

	// Workers bounds the worker pool used for input collection (one task
	// per ingest shard) and the combine tree. 0 resolves via
	// parallel.Workers to GOMAXPROCS. 1 forces the sequential paths
	// (bit-identical to the pre-parallel runtime). Run's plan search does
	// not read it (PlanRequest).
	Workers int

	// SecureNoise draws committee noise from crypto/rand
	// (mechanism.CryptoRand) instead of the seeded simulation stream. A
	// real deployment must set it — predictable noise voids the DP
	// guarantee; the default (false) keeps simulation runs replayable
	// from Seed alone.
	SecureNoise bool

	// Faults injects typed mid-execution failures (upload timeouts,
	// committee-member dropout mid-MPC-round, VSR dealer failures, ingest
	// shard crashes) at the runtime's injection points; nil injects nothing.
	// Schedules are pure functions of the plan's seed, so a run replays
	// bit-for-bit (docs/FAULTS.md).
	Faults *faults.Plan

	// IngestShards and IngestBatch shape input collection (docs/INGEST.md;
	// defaults 8 and 64): devices upload in batches to IngestShards
	// per-shard aggregators that verify, fold, and commit incrementally,
	// and the shard partials combine in a tree. Both are fixed counts —
	// never derived from GOMAXPROCS — so fault schedules addressed by
	// (shard, batch, attempt) replay identically on any machine at any
	// worker count, and the released outputs are identical at every shape.
	IngestShards int
	IngestBatch  int
}

// Device is one participant.
type Device struct {
	ID        int
	Key       []byte // sortition + proof signing key
	Category  int    // the sensitive input
	Malicious bool
	Offline   bool // unreachable during this query (churn)
}

// Deployment is a running simulated system.
type Deployment struct {
	cfg     Config
	Devices []*Device
	Budget  *privacy.Budget

	block    []byte       // sortition randomness B_i
	registry *merkle.Tree // registered devices (M_i)
	queryID  uint64

	//arblint:ignore randsource seeded simulation stream; never used for keys, blocks, or deployment noise
	rng *mrand.Rand

	// execs tracks every committee engine created for the current query so
	// their traffic can be flushed into the metrics at the end.
	execs []*committeeExec

	// runCtx is the current Run's cancellation context (RunOptions.Ctx);
	// nil between runs and for uncancellable runs. It is written once at
	// the top of Run or RunPlan, before any fan-out, and only read
	// afterwards (the checkpoint method), so pool workers may consult it
	// without races.
	runCtx context.Context

	// vignetteSeq and transferSeq number the mechanism vignettes and VSR
	// hand-offs across the deployment's lifetime: they are the first
	// coordinate of the corresponding fault-injection points, so a plan's
	// decisions stay aligned with the execution structure across retries
	// and consecutive queries.
	vignetteSeq int
	transferSeq int

	// spent is the current query's tally of released ε by mechanism call
	// site (Result.Spent). It is written at each open or decrypt of a
	// noised value, on every vignette attempt, and survives a failed run so
	// a failed-closed query can be checked too.
	spent map[lang.Pos]float64

	// Measured totals (the simulation's "ground truth" next to the cost
	// model's estimates).
	Metrics Metrics
}

// Metrics accumulates measured costs during execution.
type Metrics struct {
	DeviceBytesSent  int64
	AggregatorBytes  int64
	CommitteeBytes   int64
	MPCRounds        int
	ZKPsVerified     int
	ZKPsRejected     int
	AuditsServed     int
	AuditFailures    int
	CommitteesFormed int
	MPCComparisons   int // comparison protocols run inside committee MPCs
	VSRTransfers     int
	Reassignments    int // committee tasks moved to the next committee (churn)

	// Fault-injection and recovery counters (zero without a fault plan).
	UploadTimeouts   int           // upload attempts that timed out
	UploadRetries    int           // timeouts that were retried
	UploadsDropped   int           // devices dropped after exhausting retries
	MemberDropouts   int           // members lost mid-MPC-round
	Reformations     int           // committees re-formed from the sortition pool
	DealerFailures   int           // dealers that vanished during a VSR hand-off
	VSRRedeals       int           // hand-off attempts re-dealt from survivors
	ShardCrashes     int           // ingest shard-aggregator batch-fold crashes
	ShardResumes     int           // shard resumes from a batch-boundary checkpoint
	VignetteRetries  int           // mechanism vignettes retried after a fault
	BackoffSimulated time.Duration // total backoff a real deployment would have waited
}

// NewDeployment registers N devices and runs the trusted setup (Section 5.1:
// the initial random block B_0 is chosen while the aggregator is still
// trusted).
func NewDeployment(cfg Config) (*Deployment, error) {
	if cfg.N < 8 {
		return nil, fmt.Errorf("runtime: need at least 8 devices, have %d", cfg.N)
	}
	if cfg.Categories < 1 {
		return nil, fmt.Errorf("runtime: need at least one category")
	}
	if cfg.CommitteeSize == 0 {
		cfg.CommitteeSize = 5
	}
	if cfg.CommitteeSize < 3 || cfg.CommitteeSize > cfg.N/2 {
		return nil, fmt.Errorf("runtime: committee size %d out of range for N=%d", cfg.CommitteeSize, cfg.N)
	}
	if cfg.KeyBits == 0 {
		cfg.KeyBits = 512
	}
	if cfg.BudgetEpsilon == 0 {
		cfg.BudgetEpsilon = 10
	}
	//arblint:ignore randsource deterministic device data is the simulation replay contract
	d := &Deployment{cfg: cfg, rng: mrand.New(mrand.NewSource(cfg.Seed))}
	budget, err := privacy.NewBudget(cfg.BudgetEpsilon, 1e-6)
	if err != nil {
		return nil, err
	}
	d.Budget = budget

	data := cfg.Data
	if data == nil {
		data = d.defaultData
	}
	leaves := make([][]byte, cfg.N)
	nMal := int(float64(cfg.N) * cfg.MaliciousFrac)
	for i := 0; i < cfg.N; i++ {
		key := make([]byte, 32)
		if _, err := rand.Read(key); err != nil {
			return nil, err
		}
		cat := data(i)
		if cat < 0 || cat >= cfg.Categories {
			return nil, fmt.Errorf("runtime: device %d category %d out of range", i, cat)
		}
		d.Devices = append(d.Devices, &Device{
			ID: i, Key: key, Category: cat, Malicious: i < nMal,
		})
		leaves[i] = append([]byte(fmt.Sprintf("device-%d:", i)), key...)
	}
	d.registry, err = merkle.New(leaves)
	if err != nil {
		return nil, err
	}
	d.block = make([]byte, sha256.Size)
	if _, err := rand.Read(d.block); err != nil {
		return nil, err
	}
	// Churn: mark a fraction of devices unreachable, with a dedicated RNG
	// stream so the data distribution stays stable across configs.
	if cfg.OfflineFrac > 0 {
		if cfg.OfflineFrac >= 0.5 {
			return nil, fmt.Errorf("runtime: offline fraction %g too high", cfg.OfflineFrac)
		}
		//arblint:ignore randsource churn is simulated environment behavior, not a secret draw
		churn := mrand.New(mrand.NewSource(cfg.Seed ^ 0x5eed0ff1))
		for _, dev := range d.Devices {
			dev.Offline = churn.Float64() < cfg.OfflineFrac
		}
	}
	return d, nil
}

// workers resolves the deployment's effective worker count.
func (d *Deployment) workers() int { return parallel.Workers(d.cfg.Workers) }

// onlineMembers filters a committee to its reachable members.
func (d *Deployment) onlineMembers(c sortition.Committee) sortition.Committee {
	var out sortition.Committee
	for _, id := range c {
		if !d.Devices[id].Offline {
			out = append(out, id)
		}
	}
	return out
}

// viableCommittee reports whether enough members are online: the paper
// tolerates up to g·m offline members without extra cost, and in any case a
// strict majority of the original size must remain so reconstruction
// thresholds hold.
func (d *Deployment) viableCommittee(c sortition.Committee) bool {
	g := d.cfg.OfflineTolerance
	if g == 0 {
		g = 0.15
	}
	online := len(d.onlineMembers(c))
	if online < len(c)/2+1 || online < 3 {
		return false
	}
	return float64(len(c)-online) <= g*float64(len(c))
}

// pickViable returns the first viable committees from the sortition output,
// reassigning the tasks of broken ones to the next committee (Section 5.1:
// "Arboretum can reassign i's tasks to committee i+1 mod c"), and how many
// of all it consumed doing so — the rest are the caller's spares.
func (d *Deployment) pickViable(all []sortition.Committee, need int) ([]sortition.Committee, int, error) {
	var out []sortition.Committee
	consumed := 0
	for _, c := range all {
		if len(out) == need {
			break
		}
		consumed++
		if d.viableCommittee(c) {
			out = append(out, d.onlineMembers(c))
			continue
		}
		d.Metrics.Reassignments++
	}
	if len(out) < need {
		return nil, 0, fmt.Errorf("%w: only %d of %d committees viable under churn", ErrNoSpareCommittee, len(out), need)
	}
	return out, consumed, nil
}

// defaultData is a Zipf-like category distribution: category 0 is the mode.
func (d *Deployment) defaultData(device int) int {
	r := d.rng.Float64()
	c := 0
	p := 0.5
	for r > p && c < d.cfg.Categories-1 {
		r -= p
		p /= 2
		c++
	}
	return c
}

// selectCommittees runs sortition (Section 5.1) for the current query:
// every device computes its deterministic ticket over (B_i, queryID, 0) and
// the lowest hashes form the committees.
func (d *Deployment) selectCommittees(count int) ([]sortition.Committee, error) {
	tickets := make([]sortition.Ticket, len(d.Devices))
	for i, dev := range d.Devices {
		tickets[i] = sortition.MakeTicket(dev.Key, dev.ID, d.block, d.queryID)
	}
	cs, err := sortition.Select(tickets, count, d.cfg.CommitteeSize)
	if err != nil {
		return nil, err
	}
	d.Metrics.CommitteesFormed += len(cs)
	return cs, nil
}

// keyMaterial is the deployment's per-query key state: the public key is
// published in the query authorization certificate; the private key exists
// only as shares held by the current key committee (Section 5.2).
type keyMaterial struct {
	pub          *ahe.PublicKey
	group        *vsr.Group
	lambdaShares []shamir.Share
	muShares     []shamir.Share
	threshold    int
	holder       sortition.Committee

	// lost marks holder positions whose member dropped mid-vignette: their
	// shares are gone, so hand-offs must re-deal from the survivors.
	lost []bool
}

// markLost records dropped holder positions (keyed like holder/shares).
func (km *keyMaterial) markLost(dropped map[int]bool) {
	if km.lost == nil {
		km.lost = make([]bool, len(km.lambdaShares))
	}
	for i := range km.lost {
		if dropped[i] {
			km.lost[i] = true
		}
	}
}

// keygen runs the key-generation committee: a fresh Paillier keypair whose
// private values are immediately secret-shared among the committee; the
// clear private key is discarded (the simulation's stand-in for generating
// the key inside the MPC — see DESIGN.md). It also advances the sortition
// block with the committee's joint randomness.
func (d *Deployment) keygen(committee sortition.Committee) (*keyMaterial, error) {
	sk, err := ahe.GenerateKey(rand.Reader, d.cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	group := vsr.DefaultGroup()
	field := group.Field()
	m := len(committee)
	t := m/2 + 1
	lambdaShares, err := field.Split(sk.Lambda(), m, t)
	if err != nil {
		return nil, err
	}
	muShares, err := field.Split(sk.Mu(), m, t)
	if err != nil {
		return nil, err
	}
	// New random block from member contributions (Section 5.2).
	contribs := make([][]byte, m)
	for i := range contribs {
		c := make([]byte, sha256.Size)
		if _, err := rand.Read(c); err != nil {
			return nil, err
		}
		contribs[i] = c
	}
	next, err := sortition.NextBlock(contribs)
	if err != nil {
		return nil, err
	}
	d.block = next
	pub := sk.PublicKey
	return &keyMaterial{
		pub:          &pub,
		group:        group,
		lambdaShares: lambdaShares,
		muShares:     muShares,
		threshold:    t,
		holder:       committee,
	}, nil
}

// handoff redistributes the private-key shares from the current holder to a
// new committee via VSR (Section 5.2); as long as both committees have an
// honest majority the new committee can decrypt, and members of the two
// committees cannot collude to recover the key.
//
// The hand-off is the DealerFailure injection point: on every attempt, each
// surviving holder may vanish before dealing (a pure function of the plan
// seed, the transfer sequence, the attempt, and the dealer position). As
// long as at least threshold dealers survive, the protocol re-deals from the
// survivors' shares — the Lagrange combination only needs a reconstructing
// subset, and each share carries its evaluation point. Below the threshold
// the attempt fails with vsr.ErrInsufficientShares and the policy backs off
// and retries; exhaustion fails closed with ErrHandoffFailed.
func (km *keyMaterial) handoff(d *Deployment, to sortition.Committee) error {
	seq := d.transferSeq
	d.transferSeq++
	newN := len(to)
	newT := newN/2 + 1
	var lastErr error
	for attempt := 0; attempt < handoffBackoff.attempts; attempt++ {
		if attempt > 0 {
			d.Metrics.VSRRedeals++
			d.Metrics.BackoffSimulated += handoffBackoff.delay(attempt - 1)
		}
		var lambda, mu []shamir.Share
		for i := range km.lambdaShares {
			if i < len(km.lost) && km.lost[i] {
				continue // dropped mid-vignette earlier; its share is gone
			}
			if d.cfg.Faults.Fires(faults.DealerFailure, seq, attempt, i) {
				d.Metrics.DealerFailures++
				d.cfg.Faults.Record(faults.Fault{
					Kind: faults.DealerFailure, Idx: []int{seq, attempt, i},
					Note: fmt.Sprintf("dealer %d vanished during hand-off %d (attempt %d)", i, seq, attempt),
				})
				continue
			}
			lambda = append(lambda, km.lambdaShares[i])
			mu = append(mu, km.muShares[i])
		}
		if len(lambda) < km.threshold {
			lastErr = fmt.Errorf("%d of %d dealers survived, need %d: %w",
				len(lambda), len(km.lambdaShares), km.threshold, vsr.ErrInsufficientShares)
			continue
		}
		newLambda, err := vsr.Redistribute(km.group, lambda, km.threshold, newN, newT)
		if err != nil {
			lastErr = fmt.Errorf("runtime: VSR lambda: %w", err)
			continue
		}
		newMu, err := vsr.Redistribute(km.group, mu, km.threshold, newN, newT)
		if err != nil {
			lastErr = fmt.Errorf("runtime: VSR mu: %w", err)
			continue
		}
		km.lambdaShares = newLambda
		km.muShares = newMu
		km.threshold = newT
		km.holder = to
		km.lost = nil // the new committee starts with every share present
		d.Metrics.VSRTransfers++
		return nil
	}
	return fmt.Errorf("%w: hand-off %d to %d members gave up after %d attempts: %w",
		ErrHandoffFailed, seq, newN, handoffBackoff.attempts, lastErr)
}

// reconstructKey lets the current holding committee (honest majority
// assumed) reassemble the private key for a decryption step.
func (km *keyMaterial) reconstructKey() (*ahe.PrivateKey, error) {
	field := km.group.Field()
	lambda, err := field.Reconstruct(km.lambdaShares, km.threshold)
	if err != nil {
		return nil, err
	}
	mu, err := field.Reconstruct(km.muShares, km.threshold)
	if err != nil {
		return nil, err
	}
	return ahe.FromSecrets(km.pub, lambda, mu), nil
}

// upload is one device's contribution: the encrypted vector plus its proof,
// and the upload-fault history its pool task observed. Fault counters ride
// in the struct instead of mutating shared metrics so pool tasks stay
// write-isolated; the coordinator tallies them in device order
// (tallyUpload).
type upload struct {
	vec   []*ahe.Ciphertext
	proof *zkp.Proof
	uploadEvent
}

// uploadEvent is an upload's fault history: the compact record a shard hands
// the coordinator for every upload that hit at least one simulated timeout.
// The coordinator tallies them in shard order — which is device order, since
// shards are contiguous ranges — so the fault log and the metrics replay
// identically at every worker count.
type uploadEvent struct {
	dev      int           // device ID, for the fault log
	timeouts int           // attempts that timed out
	backoff  time.Duration // simulated wait between attempts
	dropped  bool          // gave up after uploadBackoff.attempts
}

// deviceUpload produces one device's upload for the given one-hot position:
// honest devices encrypt their row and prove it well formed; malicious
// devices upload an all-ones vector (inflating every count) with a forged
// proof. It runs on pool workers: it touches only the device's own state and
// crypto/rand.
func (d *Deployment) deviceUpload(km *keyMaterial, dev *Device, width, hot int) (upload, error) {
	claim := zkp.Claim{Kind: zkp.ClaimOneHot, VectorLen: width}
	stmt := zkp.Statement{Device: dev.ID, QueryID: d.queryID, Claim: claim}
	if dev.Malicious {
		vec := make([]*ahe.Ciphertext, width)
		var err error
		for i := range vec {
			vec[i], err = km.pub.Encrypt(rand.Reader, bigOne())
			if err != nil {
				return upload{}, err
			}
		}
		return upload{vec: vec, proof: zkp.Forge(stmt)}, nil
	}
	vec, err := km.pub.EncryptVector(rand.Reader, width, hot)
	if err != nil {
		return upload{}, err
	}
	witness := make([]int64, width)
	witness[hot] = 1
	proof, err := zkp.NewProver(dev.Key).Prove(stmt, zkp.Witness{Vector: witness})
	if err != nil {
		return upload{}, err
	}
	return upload{vec: vec, proof: proof}, nil
}

// deviceUploadRetry wraps deviceUpload with the upload-timeout injection
// point and its capped-backoff retry policy. Each attempt's fate is a pure
// function of (plan seed, device ID, attempt), so the outcome — and the
// accepted set downstream — is identical at every worker count even though
// this runs on pool workers. A device that times out uploadBackoff.attempts
// times in a row is dropped (it behaves exactly like a churned-offline
// device: its row is simply missing).
func (d *Deployment) deviceUploadRetry(km *keyMaterial, dev *Device, width, hot int) (upload, error) {
	var timeouts int
	var backoff time.Duration
	//arblint:ignore ctxcheckpoint bounded retry: the device is dropped once attempt+1 reaches uploadBackoff.attempts
	for attempt := 0; ; attempt++ {
		if d.cfg.Faults.Fires(faults.UploadTimeout, dev.ID, attempt) {
			timeouts++
			if attempt+1 >= uploadBackoff.attempts {
				return upload{uploadEvent: uploadEvent{dev: dev.ID, timeouts: timeouts, backoff: backoff, dropped: true}}, nil
			}
			backoff += uploadBackoff.delay(attempt)
			continue
		}
		up, err := d.deviceUpload(km, dev, width, hot)
		if err != nil {
			return upload{}, err
		}
		up.uploadEvent = uploadEvent{dev: dev.ID, timeouts: timeouts, backoff: backoff}
		return up, nil
	}
}

// noiseRand returns the sampler used for committee noise: crypto/rand when
// Config.SecureNoise is set (a deployment's committee joint coin), otherwise
// the deterministic simulation stand-in seeded from the deployment RNG.
func (d *Deployment) noiseRand() mechanism.Rand {
	if d.cfg.SecureNoise {
		return mechanism.CryptoRand()
	}
	return mechanism.NewRand(d.rng.Int63())
}
