package runtime

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/big"
	goruntime "runtime"
	"sync"
	"time"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/fixed"
	"arboretum/internal/hashing"
	"arboretum/internal/mechanism"
	"arboretum/internal/merkle"
	"arboretum/internal/mpc"
	"arboretum/internal/parallel"
	"arboretum/internal/zkp"
)

// This file is input collection (Section 5.3; docs/INGEST.md): the sharded,
// streaming ingest pipeline. Devices upload their one-hot rows packed into
// few ciphertexts (ahe.Packing) in batches to per-shard aggregators; each
// shard verifies proofs, folds the batch into pooled accumulators (one per
// packed ciphertext), and commits the running partials at every batch
// boundary, so folding holds O(shards × batch) ciphertexts at any instant.
// Shard partials then combine in a tree of the planner's sum-tree fanout,
// devices audit the committed batches, and the decryption committee
// decrypts the audited sums once into its MPC (unpack). Because a Paillier addition is
// multiplication mod n² — associative and commutative — the combined sums
// are bit-for-bit identical at every worker count, shard count, batch size,
// and fanout.

const (
	// defaultIngestShards and defaultIngestBatch are fixed constants — never
	// derived from GOMAXPROCS — so fault schedules addressed by
	// (shard, batch, attempt) replay identically on any machine.
	defaultIngestShards = 8
	defaultIngestBatch  = 64
	// defaultCombineFanout is the shard-combine tree's fanout when the
	// planner's sum choice names none: partials merge pairwise.
	defaultCombineFanout = 2
)

// shardSource produces one ingest shard's device uploads in shard-local
// device order. fill populates buf[0:n] with the uploads of shard-local
// devices [start, start+n). Implementations may reuse buf's slots and any
// scratch behind them between calls, but every *ahe.Ciphertext handed out
// must stay immutable once returned — the pipeline retains references to
// batches for audit replay.
type shardSource interface {
	count() int
	fill(buf []upload, start, n int) error
}

// shardRun is one shard aggregator's assignment: its slice of the device
// population (starting at global index base), an upload source over it, and
// a shard-scoped proof verifier (replay state sized to the shard, so
// verifier memory is O(shard), not O(population)).
type shardRun struct {
	base     int
	src      shardSource
	verifier *zkp.Verifier
}

// ingestSpec configures one sharded, streaming ingest run.
type ingestSpec struct {
	pub    *ahe.PublicKey
	width  int // ciphertexts per upload: the packed row's Packing.Ciphertexts
	batch  int // devices folded per batch: the bounded-memory unit
	fanout int // shard-combine tree fanout (≤ 1 = defaultCombineFanout)
	plan   *faults.Plan
	track  bool       // record accepted device indices (the bin protocol needs them)
	gauge  *heapGauge // optional peak-heap sampling for the test harness
	// byz makes the aggregator Byzantine: it shifts the partial that batch
	// byzBatch of shard byzShard commits and carries the lie forward.
	byz                bool
	byzShard, byzBatch int
	// sampleAudit retains only each shard's first, middle, and last batch
	// for audit replay instead of every batch. Sampling cannot catch a lie
	// told in an unretained batch, so only the virtual-population harness
	// sets it: it measures fold memory at 10^6+ devices, where retaining
	// every batch's inputs would be the O(population) term it must not hold.
	sampleAudit bool
	// ctx cancels the ingest at batch boundaries (RunOptions.Ctx); nil
	// never cancels. Written once before the shard fan-out, read-only
	// inside it.
	ctx context.Context
}

// retainedBatch is what an audit replays: a batch's accepted inputs plus the
// shard's claimed partials just before and just after folding it. Every
// retained claim is pinned to the global batch-commitment tree. prev and
// claimed are the shard's own immutable vectors, shared, not copied.
type retainedBatch struct {
	batch   int                 // shard-local batch index
	prev    []*ahe.Ciphertext   // partials before the batch (nil cells: nothing folded yet)
	claimed []*ahe.Ciphertext   // partials after the batch (the committed leaf's preimage)
	inputs  [][]*ahe.Ciphertext // the batch's accepted upload vectors
}

// shardResult is everything a shard aggregator reports back. Results are
// written only by the shard's own pool task and read only after the fan-out
// joins, so the pipeline needs no locks.
type shardResult struct {
	partial []*ahe.Ciphertext // the shard's folded sums (nil if nothing accepted)
	// leaves is the shard's batch-boundary commitment hashes in batch order,
	// concatenated flat (sha256.Size bytes each): one preallocated buffer
	// instead of one allocation per batch, so commitment storage stays a
	// fraction of a byte per device at 10^7+ populations.
	leaves      []byte
	retained    []retainedBatch
	accepted    int
	verified    int
	rejected    int
	bytes       int64
	events      []uploadEvent
	faults      []faults.Fault // shard-crash log entries, batch order
	crashes     int
	resumes     int
	backoff     time.Duration
	acceptedIdx []int32 // shard-local accepted device indices (track mode)
}

// retains reports whether shard-local batch b of nBatches is kept for audit
// replay: every batch, or under sampleAudit the first, middle, and last.
func (sp *ingestSpec) retains(b, nBatches int) bool {
	return !sp.sampleAudit || b == 0 || b == nBatches/2 || b == nBatches-1
}

var (
	ingestNilCell = []byte{0}
	ingestOneCell = []byte{1}
)

// ingestPartialHash commits to a checkpoint vector: each cell contributes a
// presence marker plus its fixed-width big-endian bytes (nil cells — nothing
// folded yet — contribute the zero marker). h is reused across calls; fill
// must hold ⌈n².bitlen/8⌉ bytes. The result is appended to dst.
func ingestPartialHash(h hash.Hash, cts []*ahe.Ciphertext, fill, dst []byte) []byte {
	h.Reset()
	for _, ct := range cts {
		if ct == nil {
			hashing.Write(h, ingestNilCell)
		} else {
			hashing.Write(h, ingestOneCell, ct.C.FillBytes(fill))
		}
	}
	return h.Sum(dst)
}

// foldBatch seeds accs from the partials prev, folds every input vector into
// them and returns the result as a fresh vector; a cell nothing has folded
// into stays nil. prev is never mutated, so a committed vector stays valid as
// the next batch's prev and as an audit sample. The shard and the audit share
// it: the audit recomputes a claimed partial with exactly the fold that made
// it.
func foldBatch(accs []*ahe.Accumulator, prev []*ahe.Ciphertext, inputs [][]*ahe.Ciphertext) ([]*ahe.Ciphertext, error) {
	out := make([]*ahe.Ciphertext, len(accs))
	for c, acc := range accs {
		acc.Reset()
		if prev[c] != nil {
			if err := acc.Set(prev[c]); err != nil {
				return nil, err
			}
		}
		for _, vec := range inputs {
			if err := acc.Add(vec[c]); err != nil {
				return nil, err
			}
		}
		out[c] = acc.Value()
	}
	return out, nil
}

// newAccumulators returns one empty accumulator per packed ciphertext.
func newAccumulators(pub *ahe.PublicKey, width int) []*ahe.Accumulator {
	accs := make([]*ahe.Accumulator, width)
	for c := range accs {
		accs[c] = pub.NewAccumulator()
	}
	return accs
}

// runShard is one shard aggregator: generate a batch of uploads, verify
// their proofs once, fold the accepted vectors onto the last committed
// partials (with the ShardCrash injection point wrapping the fold in a
// resume retry loop), commit the result, and move to the next batch.
//
// Between batches the shard's whole state is one immutable vector, last: the
// partials its latest leaf commits to. A fold never writes into last; it
// returns a fresh vector that becomes the new last, so a retained batch
// shares its prev and claimed vectors with the shard instead of copying
// them. Steady-state fold memory is one upload batch plus the width
// accumulators and the last vector, independent of shard size; what grows
// with the shard is what the audit retains (ingestSpec.retains).
//
// Verification runs exactly once per batch, before any fold attempt: its
// outcomes — the accepted set and the verifier's replay state — are durable
// across fold crashes, and a resume only refolds already-verified uploads
// from last, re-verified against its leaf. That is the no-double-count
// argument: a device's upload is admitted at most once, and every fold
// attempt starts from partials that do not include the in-flight batch.
func (sp *ingestSpec) runShard(shard int, job shardRun) (*shardResult, error) {
	res := &shardResult{}
	n := job.src.count()
	if n == 0 {
		return res, nil
	}
	accs := newAccumulators(sp.pub, sp.width)
	last := make([]*ahe.Ciphertext, sp.width)

	h := sha256.New()
	fill := make([]byte, sp.pub.CiphertextBytes())
	verifyHash := make([]byte, 0, sha256.Size)
	batchBuf := make([]upload, sp.batch)
	vecs := make([][]*ahe.Ciphertext, 0, sp.batch)

	nBatches := (n + sp.batch - 1) / sp.batch
	res.leaves = make([]byte, 0, nBatches*sha256.Size)
	corruptAt := -1
	if sp.byz && shard == sp.byzShard {
		corruptAt = sp.byzBatch
	}

	for b := 0; b < nBatches; b++ {
		// Batch boundaries are cancellation checkpoints: the shard's last
		// partials are committed and no upload is half-folded, so a
		// deadline-canceled ingest aborts here without double-counting.
		if err := checkpoint(sp.ctx, "ingest batch"); err != nil {
			return nil, err
		}
		start := b * sp.batch
		cnt := min(sp.batch, n-start)
		if err := job.src.fill(batchBuf[:cnt], start, cnt); err != nil {
			return nil, err
		}
		vecs = vecs[:0]
		for i := 0; i < cnt; i++ {
			up := &batchBuf[i]
			if up.timeouts > 0 {
				res.events = append(res.events, up.uploadEvent)
			}
			if up.dropped {
				continue // nothing arrived
			}
			res.bytes += int64(len(up.vec) * sp.pub.CiphertextBytes())
			res.bytes += int64(up.proof.Bytes())
			res.verified++
			if !job.verifier.Verify(up.proof) {
				res.rejected++
				continue
			}
			vecs = append(vecs, up.vec)
			if sp.track {
				res.acceptedIdx = append(res.acceptedIdx, int32(start+i))
			}
		}
		var next []*ahe.Ciphertext
		//arblint:ignore ctxcheckpoint bounded retry: returns once attempt+1 reaches shardBackoff.attempts
		for attempt := 0; ; attempt++ {
			if sp.plan.Fires(faults.ShardCrash, shard, b, attempt) {
				res.crashes++
				res.faults = append(res.faults, faults.Fault{
					Kind: faults.ShardCrash, Idx: []int{shard, b, attempt},
					Note: fmt.Sprintf("shard %d crashed folding batch %d", shard, b),
				})
				if attempt+1 >= shardBackoff.attempts {
					return nil, fmt.Errorf("%w: shard %d batch %d crashed %d times",
						ErrShardFailed, shard, b, attempt+1)
				}
				res.backoff += shardBackoff.delay(attempt)
				// The crash loses the in-flight fold. The retry refolds from
				// last, verified against the leaf that committed it before it
				// is trusted.
				if b > 0 {
					verifyHash = ingestPartialHash(h, last, fill, verifyHash[:0])
					if !bytes.Equal(verifyHash, res.leaves[len(res.leaves)-sha256.Size:]) {
						return nil, fmt.Errorf("%w: shard %d checkpoint %d does not verify",
							ErrShardFailed, shard, b-1)
					}
				}
				res.resumes++
				continue
			}
			var err error
			if next, err = foldBatch(accs, last, vecs); err != nil {
				return nil, err
			}
			break
		}
		if b == corruptAt && next[0] != nil {
			// Byzantine shard aggregator: silently shift cell 0's count and
			// carry the corruption forward, as a cheating aggregator would.
			bad, err := sp.pub.AddPlain(next[0], big.NewInt(1000))
			if err != nil {
				return nil, err
			}
			next[0] = bad
		}
		// Batch boundary: commit next and make it the shard's state.
		res.leaves = ingestPartialHash(h, next, fill, res.leaves)
		if sp.retains(b, nBatches) {
			res.retained = append(res.retained, retainedBatch{
				batch:   b,
				prev:    last,
				claimed: next,
				inputs:  append([][]*ahe.Ciphertext(nil), vecs...),
			})
		}
		last = next
		res.accepted += len(vecs)
		sp.gauge.sample(false)
	}
	if res.accepted > 0 {
		res.partial = last
	}
	return res, nil
}

// ingestResult is a completed sharded ingest.
type ingestResult struct {
	shards       []*shardResult
	sums         []*ahe.Ciphertext // combined shard partials, packed as codec packs a row
	codec        *ahe.Packing      // the row packing (Deployment.ingest; nil in the harness)
	tree         *merkle.Tree      // global commitment over every batch leaf, shard order
	accepted     int
	combineBytes int64 // aggregator-side traffic of the shard combine
	acceptedIdx  []int // global accepted device indices (track mode)
}

// runShardedIngest drives every shard aggregator on the worker pool and
// combines their partials hierarchically. Shards write disjoint results,
// parallel.Map reassembles them in shard order and surfaces the
// lowest-shard error first, so the whole phase is deterministic at every
// worker and shard count.
func runShardedIngest(sp *ingestSpec, jobs []shardRun) (*ingestResult, error) {
	shards, err := parallel.Map(len(jobs), 0, func(s int) (*shardResult, error) {
		return sp.runShard(s, jobs[s])
	})
	if err != nil {
		return nil, err
	}
	res := &ingestResult{shards: shards}
	var partials [][]*ahe.Ciphertext
	for s, sr := range shards {
		res.accepted += sr.accepted
		if sr.partial != nil {
			partials = append(partials, sr.partial)
		}
		if sp.track {
			for _, idx := range sr.acceptedIdx {
				res.acceptedIdx = append(res.acceptedIdx, jobs[s].base+int(idx))
			}
		}
	}
	if res.accepted == 0 {
		return res, nil
	}
	sums, sent, err := combinePartials(sp.pub, partials, sp.fanout)
	if err != nil {
		return nil, err
	}
	res.sums = sums
	res.combineBytes = sent
	sp.gauge.sample(true)
	// The global commitment tree spans every shard's batch leaves in shard
	// order; audits prove inclusion against its root. The per-leaf views are
	// cut from the shards' flat buffers only here, after the last heap
	// sample: the tree is a post-ingest artifact, not streaming state.
	var leaves [][]byte
	for _, sr := range shards {
		for off := 0; off+sha256.Size <= len(sr.leaves); off += sha256.Size {
			leaves = append(leaves, sr.leaves[off:off+sha256.Size])
		}
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		return nil, err
	}
	res.tree = tree
	return res, nil
}

// combinePartials folds the shard partials level by level in groups of
// fanout until one vector remains: one pool task per group folds the rest of
// the group onto its first partial with foldBatch, and the results stay in
// group order, so the sums are the same at every worker count. It reports
// the combine's traffic, the partials each group's combiner receives
// (aggregator-side: shard partials travel between aggregator tiers, not from
// devices); every tree shape moves len(partials)−1 vectors, so the traffic is
// the same at every fanout.
func combinePartials(pub *ahe.PublicKey, partials [][]*ahe.Ciphertext, fanout int) ([]*ahe.Ciphertext, int64, error) {
	if fanout <= 1 {
		fanout = defaultCombineFanout
	}
	var total int64
	for len(partials) > 1 {
		for i, vec := range partials {
			if i%fanout != 0 {
				total += int64(len(vec) * pub.CiphertextBytes())
			}
		}
		next, err := parallel.Map((len(partials)+fanout-1)/fanout, 0, func(g int) ([]*ahe.Ciphertext, error) {
			group := partials[g*fanout : min((g+1)*fanout, len(partials))]
			return foldBatch(newAccumulators(pub, len(group[0])), group[0], group[1:])
		})
		if err != nil {
			return nil, 0, err
		}
		partials = next
	}
	return partials[0], total, nil
}

// auditIngest replays the retained batches against the global batch
// commitment: for each one, verify the Merkle inclusion of the claimed
// partials, then recompute claimed = prev ⊞ Σ batch inputs with the shard's
// own foldBatch and compare. A replay starts from the shard's own claimed
// prev, so it catches a lie only in the batch where it was told — every
// later batch recomputes consistently from the already-shifted partials. Detection therefore
// needs every batch retained, which is what Run does (ingestSpec.retains).
func auditIngest(pub *ahe.PublicKey, res *ingestResult, m *Metrics) error {
	if res.tree == nil {
		return nil
	}
	var firstErr error
	h := sha256.New()
	fill := make([]byte, pub.CiphertextBytes())
	base := 0
	for _, sr := range res.shards {
		for _, rb := range sr.retained {
			m.AuditsServed++
			if err := auditIngestBatch(pub, res.tree, base+rb.batch, rb, h, fill); err != nil {
				m.AuditFailures++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		base += len(sr.leaves) / sha256.Size
	}
	return firstErr
}

// auditIngestBatch replays one retained batch against leaf index leaf of the
// commitment tree, on accumulators of its own.
func auditIngestBatch(pub *ahe.PublicKey, tree *merkle.Tree, leaf int, rb retainedBatch, h hash.Hash, fill []byte) error {
	proof, err := tree.Prove(leaf)
	if err != nil {
		return err
	}
	if !merkle.Verify(tree.Root(), ingestPartialHash(h, rb.claimed, fill, nil), proof) {
		return fmt.Errorf("runtime: ingest inclusion proof for batch %d failed", leaf)
	}
	running, err := foldBatch(newAccumulators(pub, len(rb.claimed)), rb.prev, rb.inputs)
	if err != nil {
		return err
	}
	for c := range rb.claimed {
		want, got := rb.claimed[c], running[c]
		if (want == nil) != (got == nil) || (want != nil && got.C.Cmp(want.C) != 0) {
			return fmt.Errorf("runtime: ingest batch %d does not recompute: aggregator misbehavior", leaf)
		}
	}
	return nil
}

// deviceSource adapts a contiguous range of the deployment's online devices
// to the streaming interface. Upload generation (encryption + proof) happens
// inside fill, one batch at a time, so the pipeline never holds more than
// one batch of device ciphertexts per shard. Proofs are made on the
// source's own scratch and witness row into the batch slots' recycled
// proofs, the way the virtual-population harness's templateSource makes
// them.
type deviceSource struct {
	d       *Deployment
	codec   *ahe.Packing
	devices []*Device // the shard's online devices, device order
	base    int       // global online index of devices[0]
	hot     func(onlineIdx int, dev *Device) int
	sc      *zkp.Scratch
	witness []int64 // the one-hot row being proven: all zeros between uploads
}

func (s *deviceSource) count() int { return len(s.devices) }

func (s *deviceSource) fill(buf []upload, start, n int) error {
	for i := 0; i < n; i++ {
		dev := s.devices[start+i]
		pr := buf[i].proof
		if pr == nil {
			pr = new(zkp.Proof) // batch-slot reuse: allocated once per slot
		}
		up, err := s.deviceUploadRetry(dev, s.hot(s.base+start+i, dev), pr)
		if err != nil {
			return err
		}
		buf[i] = up
	}
	return nil
}

// shardRuns cuts the online devices into contiguous shard ranges in device
// order, each with a device upload source and a verifier over the ids of
// the shard's first through last device. Device ids index d.Devices, so the
// verifier's key function reads a device's key there, and returns nil for
// an offline one: an id inside the range is this shard's exactly when it is
// online.
func (d *Deployment) shardRuns(online []*Device, codec *ahe.Packing, hot func(onlineIdx int, dev *Device) int) []shardRun {
	keyOf := func(id int) []byte {
		if dev := d.Devices[id]; !dev.Offline {
			return dev.Key
		}
		return nil
	}
	jobs := make([]shardRun, d.shards)
	for s := range jobs {
		lo := s * len(online) / d.shards
		hi := (s + 1) * len(online) / d.shards
		devs := online[lo:hi]
		first, last := 0, -1
		if len(devs) > 0 {
			first, last = devs[0].ID, devs[len(devs)-1].ID
		}
		jobs[s] = shardRun{
			base: lo,
			src: &deviceSource{
				d: d, codec: codec, devices: devs, base: lo, hot: hot,
				sc: zkp.NewScratch(), witness: make([]int64, codec.Cells()),
			},
			verifier: zkp.NewVerifierFunc(keyOf, first, last+1),
		}
	}
	return jobs
}

// ingest runs the pipeline over the deployment's online devices, cut into
// contiguous shard ranges in device order (so shard order IS device order
// and every coordinator tally below replays identically), audits every
// committed batch and folds the shard-side counters into the metrics:
// res.sums holds the audited packed sums, which the decryption committee
// unpacks (Deployment.unpack). cells is the length of a device's one-hot row,
// which it uploads packed for the deployment's device count. fanout is the
// planner's sum-tree choice for the shard combine.
func (d *Deployment) ingest(km *keyMaterial, cells, fanout int, hot func(onlineIdx int, dev *Device) int, track bool) (*ingestResult, error) {
	codec, err := km.pub.NewPacking(d.cfg.N, cells)
	if err != nil {
		return nil, err
	}
	var online []*Device
	for _, dev := range d.Devices {
		if !dev.Offline { // churned devices simply do not upload
			online = append(online, dev)
		}
	}
	shards, batch := d.shards, d.batch
	sp := &ingestSpec{
		pub:    km.pub,
		width:  codec.Ciphertexts(),
		batch:  batch,
		fanout: fanout,
		plan:   d.cfg.Faults,
		track:  track,
		ctx:    d.runCtx,
	}
	jobs := d.shardRuns(online, codec, hot)
	if d.cfg.ByzantineAggregator {
		// The cheating aggregator lies in one batch of one shard; which one
		// is a pure function of the seed, so the run replays and a sweep
		// over seeds plants the lie at every position.
		batches := make([]int, shards)
		total := 0
		for s, job := range jobs {
			batches[s] = (job.src.count() + batch - 1) / batch
			total += batches[s]
		}
		if total > 0 {
			k := int(uint64(d.cfg.Seed) % uint64(total))
			for s, n := range batches {
				if k < n {
					sp.byz, sp.byzShard, sp.byzBatch = true, s, k
					break
				}
				k -= n
			}
		}
	}
	res, err := runShardedIngest(sp, jobs)
	if err != nil {
		return nil, err
	}
	for _, sr := range res.shards {
		for _, ev := range sr.events {
			d.tallyUpload(ev)
		}
		for _, f := range sr.faults {
			d.cfg.Faults.Record(f)
		}
		d.Metrics.DeviceBytesSent += sr.bytes
		d.Metrics.ZKPsVerified += sr.verified
		d.Metrics.ZKPsRejected += sr.rejected
		d.Metrics.ShardCrashes += sr.crashes
		d.Metrics.ShardResumes += sr.resumes
		d.Metrics.BackoffSimulated += sr.backoff
	}
	d.Metrics.AggregatorBytes += res.combineBytes
	if res.accepted == 0 {
		return nil, ErrNoValidInputs
	}
	if err := auditIngest(km.pub, res, &d.Metrics); err != nil {
		return nil, fmt.Errorf("runtime: audit: %w", err)
	}
	res.codec = codec
	return res, nil
}

// unpack is the query's one decryption, PAPER.md §4.5's dec() where the
// counts enter a committee vignette: the decryption committee ce, which
// holds the key after the hand-off, reconstructs it, decrypts the
// ⌈cells/digits⌉ audited packed sums on the pool, splits the digits
// (ahe.Packing.Unpack) and enters every count into its MPC as a joint
// secret, in cell order, so the share stream is the same at every worker
// count. Nothing is encrypted under the key afterwards, and it is not used
// again. (A real committee decrypts inside the MPC; the simulation
// reconstructs the key under the same honest-majority assumption and
// re-shares at once — DESIGN.md, "Key shares".) It draws nothing from the
// deployment RNG, takes no vignette or transfer sequence number and runs
// outside every fault-injection window.
func (d *Deployment) unpack(ce *committeeExec, km *keyMaterial, res *ingestResult) ([]mpc.Secret, error) {
	sk, err := km.reconstructKey()
	if err != nil {
		return nil, err
	}
	pts, err := parallel.Map(len(res.sums), 0, func(k int) (*big.Int, error) {
		return sk.Decrypt(res.sums[k])
	})
	if err != nil {
		return nil, fmt.Errorf("runtime: committee decryption: %w", err)
	}
	counts, err := res.codec.Unpack(pts)
	if err != nil {
		return nil, fmt.Errorf("runtime: unpack: %w", err)
	}
	out := make([]mpc.Secret, len(counts))
	for c, v := range counts {
		out[c] = ce.engine.JointFixed(fixed.FromInt(v))
	}
	return out, nil
}

// collectInputs has every online device encrypt its packed one-hot row
// under the query key and prove it well formed; the shard aggregators verify
// each proof, drop invalid uploads, and fold the rest (Section 5.3). It
// returns the audited packed per-category sums and how many uploads were
// accepted.
func (d *Deployment) collectInputs(km *keyMaterial, fanout int) (*ingestResult, error) {
	return d.ingest(km, d.cfg.Categories, fanout, func(_ int, dev *Device) int { return dev.Category }, false)
}

// collectBinned is collection for the bin protocol (sample.go): every online
// device uploads a packed b×C row with its one-hot cell in a uniformly
// random bin, zeros elsewhere, and a proof that the whole row is one-hot. It
// returns the audited packed per-bin-per-category sums, bin-major, and the
// (simulation-only) bin each accepted device chose. The bin draws consume
// the deployment RNG sequentially in device order BEFORE any shard task
// runs, so the stream is identical at every worker and shard count.
func (d *Deployment) collectBinned(km *keyMaterial, fanout int) (*ingestResult, []int, error) {
	cats := d.cfg.Categories
	var chosen []int
	for _, dev := range d.Devices {
		if !dev.Offline {
			chosen = append(chosen, d.rng.Intn(mechanism.SampleBinCount))
		}
	}
	res, err := d.ingest(km, mechanism.SampleBinCount*cats, fanout, func(onlineIdx int, dev *Device) int {
		return chosen[onlineIdx]*cats + dev.Category
	}, true)
	if err != nil {
		return nil, nil, err
	}
	bins := make([]int, len(res.acceptedIdx))
	for i, idx := range res.acceptedIdx {
		bins[i] = chosen[idx]
	}
	return res, bins, nil
}

// heapGauge samples the process heap so the ingest tests and benchmarks can
// report a peak-heap figure — the memory-flatness evidence the ingest sweep
// exists to produce. Safe for concurrent use by
// shard tasks; ReadMemStats stops the world, so shards only call it at
// batch boundaries and the gauge keeps calls ≥50 ms apart. A nil gauge
// disables sampling.
type heapGauge struct {
	mu   sync.Mutex
	last time.Time
	peak uint64
}

// sample records the current heap allocation if the throttle window passed;
// force ignores the throttle (used at end-of-run boundaries).
func (g *heapGauge) sample(force bool) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	now := time.Now()
	if !force && now.Sub(g.last) < 50*time.Millisecond {
		return
	}
	g.last = now
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	if ms.HeapAlloc > g.peak {
		g.peak = ms.HeapAlloc
	}
}
