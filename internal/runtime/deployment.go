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
// internal/parallel worker pool, sized by GOMAXPROCS. A Deployment
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
	"errors"
	"fmt"
	"math/big"
	//arblint:ignore randsource simulation determinism only; secrets use crypto/rand and noise honors Config.SecureNoise
	mrand "math/rand"
	"time"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
	"arboretum/internal/merkle"
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
	// committee (Section 5.1's churn handling; the tolerated fraction is the
	// paper's g, sortition.DefaultSizeParams.G, the value the planner sizes
	// committees at).
	OfflineFrac float64

	// Data assigns each device its category; nil uses a Zipf-like default.
	Data func(device int) int

	// BudgetEpsilon is the deployment's total privacy budget (default 10).
	BudgetEpsilon float64

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

	// shards and batch shape input collection (defaultIngestShards,
	// defaultIngestBatch; docs/INGEST.md), and g is the churn tolerance
	// (sortition.DefaultSizeParams.G). NewDeployment fixes all three, and
	// released outputs are identical at every shape; in-package tests vary
	// them.
	shards, batch int
	g             float64

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
	// key hand-offs (one per query) across the deployment's lifetime: they
	// are the first coordinate of the corresponding fault-injection points,
	// so a plan's decisions stay aligned with the execution structure across
	// retries and consecutive queries.
	vignetteSeq int
	transferSeq int

	// spent is the current query's tally of released ε by mechanism call
	// site (Result.Spent). It is written at each open of a noised value,
	// on every vignette attempt, and survives a failed run so a
	// failed-closed query can be checked too.
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

// ErrKeyTooLarge refuses a KeyBits outside the supported range: an even
// size of at least minKeyBits, whose primes of KeyBits/2 bits have at most
// maxPrimeBits. Two primes of KeyBits/2 bits with their top two bits set
// always make an even-length n, so no odd size can be generated.
var ErrKeyTooLarge = errors.New("runtime: key size outside the supported range")

// minKeyBits is the smallest key ahe.GenerateKeyFor makes.
const minKeyBits = 128

// maxPrimeBits is the widest key prime a deployment supports, at KeyBits
// 3,068: three limbs of limbBits.
const maxPrimeBits = 1534

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
	if cfg.KeyBits < minKeyBits || cfg.KeyBits%2 != 0 {
		return nil, fmt.Errorf("%w: KeyBits %d is not an even size of at least %d", ErrKeyTooLarge, cfg.KeyBits, minKeyBits)
	}
	// ahe.GenerateKeyFor's primes have KeyBits/2 bits.
	if cfg.KeyBits/2 > maxPrimeBits {
		return nil, fmt.Errorf("%w: KeyBits %d needs %d-bit primes, at most %d are supported", ErrKeyTooLarge, cfg.KeyBits, cfg.KeyBits/2, maxPrimeBits)
	}
	if cfg.BudgetEpsilon == 0 {
		cfg.BudgetEpsilon = 10
	}
	d := &Deployment{
		cfg:    cfg,
		shards: defaultIngestShards,
		batch:  defaultIngestBatch,
		g:      sortition.DefaultSizeParams.G,
		//arblint:ignore randsource deterministic device data is the simulation replay contract
		rng: mrand.New(mrand.NewSource(cfg.Seed)),
	}
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

// viableCommittee reports whether enough members are online to form the
// committee (reachable).
func (d *Deployment) viableCommittee(c sortition.Committee) bool {
	return d.reachable(len(d.onlineMembers(c)), len(c)) == nil
}

// majority is the honest-majority threshold of an m-member committee: the
// shares a reconstruction needs.
func majority(m int) int { return m/2 + 1 }

// reachable is the one check on how many of a committee's m members are
// online, at formation and at every vignette step boundary. Fewer than a
// strict majority of the original size, or than 3, cannot reconstruct the
// key (ErrCommitteeBroken); more offline than the churn tolerance g·m — the
// paper's no-extra-cost bound — fails too, while a reconstructing majority
// still survives, so recovery can re-form the committee
// (ErrCommitteeDegraded).
func (d *Deployment) reachable(online, m int) error {
	if online < majority(m) || online < 3 {
		return fmt.Errorf("%w: %d of %d members reachable", ErrCommitteeBroken, online, m)
	}
	if float64(m-online) > d.g*float64(m) {
		return fmt.Errorf("%w: %d of %d members reachable", ErrCommitteeDegraded, online, m)
	}
	return nil
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
//
// The committee shares the prime p alone. q = n/p, λ, μ and the CRT values
// are public functions of p and n, so shares of them would protect nothing
// that p's shares do not; reconstructKey derives them (DESIGN.md, "Key
// shares"). p is shared in limbs of limbBits bits, each below the group's
// order Q: one limb up to KeyBits 1,024, and a sharing per limb.
type keyMaterial struct {
	pub   *ahe.PublicKey
	group *vsr.Group
	// primeShares[l][i] is holder position i's share of limb l of p, the
	// least significant limb first.
	primeShares [][]shamir.Share
	threshold   int
	holder      sortition.Committee
}

// keygen runs the key-generation committee: a fresh Paillier keypair whose
// prime p is immediately secret-shared among the committee (shareKey); the clear
// private key is discarded (the simulation's stand-in for generating the key
// inside the MPC — see DESIGN.md). Its fixed-base table is sized for
// encryptions (keyEncryptions). It also advances the sortition block with
// the committee's joint randomness.
func (d *Deployment) keygen(committee sortition.Committee, encryptions int) (*keyMaterial, error) {
	sk, err := ahe.GenerateKeyFor(rand.Reader, d.cfg.KeyBits, encryptions)
	if err != nil {
		return nil, err
	}
	km, err := shareKey(sk, committee)
	if err != nil {
		return nil, err
	}
	// New random block from member contributions (Section 5.2).
	contribs := make([][]byte, len(committee))
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
	return km, nil
}

// keyEncryptions counts the encryptions a query key serves, which size its
// fixed-base table: every device's packed row, at the ciphertexts per row of
// the deployment's key size and device count, a sampled query's row having a
// cell per bin and category (collectBinned). Nothing else is encrypted under
// the key.
func (d *Deployment) keyEncryptions(sampled bool) int {
	cells := d.cfg.Categories
	if sampled {
		cells *= mechanism.SampleBinCount
	}
	return d.cfg.N * ahe.RowCiphertexts(d.cfg.KeyBits, d.cfg.N, cells)
}

// limbBits is the width of one limb of the shared key prime: the largest
// power of two below the sharing field's order Q, so every limb fits it.
var limbBits = uint(vsr.DefaultGroup().Q.BitLen() - 1)

// splitLimbs cuts v ≥ 0 into limbs of limbBits bits, the least significant
// first: ⌈bits/limbBits⌉ of them, and one for v = 0.
func splitLimbs(v *big.Int) []*big.Int {
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), limbBits), big.NewInt(1))
	var limbs []*big.Int
	for rest := new(big.Int).Set(v); len(limbs) == 0 || rest.Sign() > 0; rest.Rsh(rest, limbBits) {
		limbs = append(limbs, new(big.Int).And(rest, mask))
	}
	return limbs
}

// joinLimbs is splitLimbs's inverse: Σ_l limbs[l]·2^(l·limbBits).
func joinLimbs(limbs []*big.Int) *big.Int {
	v := new(big.Int)
	for l := len(limbs) - 1; l >= 0; l-- {
		v.Lsh(v, limbBits).Add(v, limbs[l])
	}
	return v
}

// shareKey splits each limb of sk's prime p among committee with an
// honest-majority threshold.
func shareKey(sk *ahe.PrivateKey, committee sortition.Committee) (*keyMaterial, error) {
	group := vsr.DefaultGroup()
	t := majority(len(committee))
	shares, err := splitKey(group, sk.Prime(), len(committee), t)
	if err != nil {
		return nil, err
	}
	pub := sk.PublicKey
	return &keyMaterial{pub: &pub, group: group, primeShares: shares, threshold: t, holder: committee}, nil
}

// splitKey shares each limb of p among n members at threshold t.
func splitKey(group *vsr.Group, p *big.Int, n, t int) ([][]shamir.Share, error) {
	limbs := splitLimbs(p)
	shares := make([][]shamir.Share, len(limbs))
	for l, limb := range limbs {
		var err error
		if shares[l], err = group.Field().Split(limb, n, t); err != nil {
			return nil, err
		}
	}
	return shares, nil
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
// and retries; exhaustion fails closed with ErrHandoffFailed. An attempt
// picks its dealers once and redistributes every limb of p from them, and a
// hand-off counts one VSR transfer however many limbs it moves.
func (km *keyMaterial) handoff(d *Deployment, to sortition.Committee) error {
	seq := d.transferSeq
	d.transferSeq++
	newN := len(to)
	newT := majority(newN)
	var lastErr error
	for attempt := 0; attempt < handoffBackoff.attempts; attempt++ {
		if attempt > 0 {
			d.Metrics.VSRRedeals++
			d.Metrics.BackoffSimulated += handoffBackoff.delay(attempt - 1)
		}
		var alive []int // surviving dealer positions
		for i := range km.holder {
			if d.cfg.Faults.Fires(faults.DealerFailure, seq, attempt, i) {
				d.Metrics.DealerFailures++
				d.cfg.Faults.Record(faults.Fault{
					Kind: faults.DealerFailure, Idx: []int{seq, attempt, i},
					Note: fmt.Sprintf("dealer %d vanished during hand-off %d (attempt %d)", i, seq, attempt),
				})
				continue
			}
			alive = append(alive, i)
		}
		if len(alive) < km.threshold {
			lastErr = fmt.Errorf("%d of %d dealers survived, need %d: %w",
				len(alive), len(km.holder), km.threshold, vsr.ErrInsufficientShares)
			continue
		}
		shares, err := km.redistribute(alive, newN, newT)
		if err != nil {
			lastErr = fmt.Errorf("runtime: VSR: %w", err)
			continue
		}
		km.primeShares = shares
		km.threshold = newT
		km.holder = to
		d.Metrics.VSRTransfers++
		return nil
	}
	return fmt.Errorf("%w: hand-off %d to %d members gave up after %d attempts: %w",
		ErrHandoffFailed, seq, newN, handoffBackoff.attempts, lastErr)
}

// redistribute runs one VSR per limb of p from the dealers at the holder
// positions alive to a new committee of newN at threshold newT.
func (km *keyMaterial) redistribute(alive []int, newN, newT int) ([][]shamir.Share, error) {
	next := make([][]shamir.Share, len(km.primeShares))
	for l, limb := range km.primeShares {
		old := make([]shamir.Share, len(alive))
		for k, i := range alive {
			old[k] = limb[i]
		}
		var err error
		if next[l], err = vsr.Redistribute(km.group, old, km.threshold, newN, newT); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// reconstructKey lets the current holding committee (honest majority
// assumed) reassemble the private key for the query's one decryption
// (Deployment.unpack): each limb of p from its shares, p from its limbs, then the whole CRT key by
// ahe.KeyFromPrime. A p that is not a proper factor of n fails closed with
// ahe.ErrNotFactor.
func (km *keyMaterial) reconstructKey() (*ahe.PrivateKey, error) {
	limbs := make([]*big.Int, len(km.primeShares))
	for l, shares := range km.primeShares {
		var err error
		if limbs[l], err = km.group.Field().Reconstruct(shares, km.threshold); err != nil {
			return nil, err
		}
	}
	sk, err := ahe.KeyFromPrime(km.pub, joinLimbs(limbs))
	if err != nil {
		return nil, fmt.Errorf("runtime: reconstructed key: %w", err)
	}
	return sk, nil
}

// upload is one device's contribution: its packed row's ciphertexts plus
// its proof, and the upload-fault history its pool task observed. Fault
// counters ride in the struct instead of mutating shared metrics so pool
// tasks stay write-isolated; the coordinator tallies them in device order
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

// deviceUpload produces one device's upload for the given one-hot cell:
// honest devices encrypt their packed row (ahe.Packing) and prove the row
// well formed with zkp.ProveKeyed into pr, the batch slot's recycled proof;
// malicious devices upload the all-ones row (inflating every count) with a
// forged proof. It runs inside the shard's pool task: it touches only the
// device's own state, the source's scratch and crypto/rand.
func (s *deviceSource) deviceUpload(dev *Device, hot int, pr *zkp.Proof) (upload, error) {
	claim := zkp.Claim{Kind: zkp.ClaimOneHot, VectorLen: s.codec.Cells()}
	stmt := zkp.Statement{Device: dev.ID, QueryID: s.d.queryID, Claim: claim}
	if dev.Malicious {
		vec, err := s.codec.EncryptOnes(rand.Reader)
		if err != nil {
			return upload{}, err
		}
		return upload{vec: vec, proof: zkp.Forge(stmt)}, nil
	}
	vec, err := s.codec.Encrypt(rand.Reader, hot)
	if err != nil {
		return upload{}, err
	}
	s.witness[hot] = 1
	err = zkp.ProveKeyed(s.sc, dev.Key, stmt, zkp.Witness{Vector: s.witness}, pr)
	s.witness[hot] = 0
	if err != nil {
		return upload{}, err
	}
	return upload{vec: vec, proof: pr}, nil
}

// deviceUploadRetry wraps deviceUpload with the upload-timeout injection
// point and its capped-backoff retry policy. Each attempt's fate is a pure
// function of (plan seed, device ID, attempt), so the outcome — and the
// accepted set downstream — is identical at every worker count even though
// this runs on pool workers. A device that times out uploadBackoff.attempts
// times in a row is dropped (it behaves exactly like a churned-offline
// device: its row is simply missing).
func (s *deviceSource) deviceUploadRetry(dev *Device, hot int, pr *zkp.Proof) (upload, error) {
	var timeouts int
	var backoff time.Duration
	//arblint:ignore ctxcheckpoint bounded retry: the device is dropped once attempt+1 reaches uploadBackoff.attempts
	for attempt := 0; ; attempt++ {
		if s.d.cfg.Faults.Fires(faults.UploadTimeout, dev.ID, attempt) {
			timeouts++
			if attempt+1 >= uploadBackoff.attempts {
				return upload{uploadEvent: uploadEvent{dev: dev.ID, timeouts: timeouts, backoff: backoff, dropped: true}}, nil
			}
			backoff += uploadBackoff.delay(attempt)
			continue
		}
		up, err := s.deviceUpload(dev, hot, pr)
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
