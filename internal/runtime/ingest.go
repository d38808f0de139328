package runtime

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"math/big"
	"time"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/hashing"
	"arboretum/internal/merkle"
	"arboretum/internal/parallel"
	"arboretum/internal/zkp"
)

// This file is input collection (Section 5.3; docs/INGEST.md): the sharded,
// streaming ingest pipeline. Devices upload in batches to per-shard
// aggregators; each shard verifies proofs, folds the batch into pooled
// accumulators (one per ciphertext cell), and commits the running partials
// at every batch boundary, so folding holds O(shards × batch) ciphertexts at
// any instant. Shard partials then combine in a tree of the planner's
// sum-tree fanout, and devices audit the committed batches. Because a
// Paillier addition is multiplication mod n² — associative and commutative —
// the combined sums are bit-for-bit identical at every worker count, shard
// count, batch size, and fanout.

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
	pub     *ahe.PublicKey
	width   int // ciphertext cells per upload (categories, or bins×categories)
	batch   int // devices folded per batch: the bounded-memory unit
	fanout  int // shard-combine tree fanout (≤ 1 = defaultCombineFanout)
	workers int
	plan    *faults.Plan
	track   bool       // record accepted device indices (the bin protocol needs them)
	gauge   *heapGauge // optional peak-heap sampling for the bench harness
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
// retained claim is pinned to the global batch-commitment tree.
type retainedBatch struct {
	batch   int                 // shard-local batch index
	prev    []*ahe.Ciphertext   // checkpoint before the batch (nil cells: nothing folded yet)
	claimed []*ahe.Ciphertext   // checkpoint after the batch (the committed leaf's preimage)
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

// ingestAccHash is ingestPartialHash over live accumulators; the two must
// produce identical bytes for the same partials (the crash-recovery path
// re-hashes the checkpoint copy of what this committed).
func ingestAccHash(h hash.Hash, accs []*ahe.Accumulator, fill, dst []byte) []byte {
	h.Reset()
	for _, a := range accs {
		if a.Empty() {
			hashing.Write(h, ingestNilCell)
		} else {
			hashing.Write(h, ingestOneCell, a.Fill(fill))
		}
	}
	return h.Sum(dst)
}

// snapshotCts deep-copies a checkpoint vector. The shard's rotating buffers
// are overwritten in place at every batch boundary, so audit samples keep
// their own big.Int values.
func snapshotCts(cts []*ahe.Ciphertext) []*ahe.Ciphertext {
	out := make([]*ahe.Ciphertext, len(cts))
	for i, ct := range cts {
		if ct != nil {
			out[i] = &ahe.Ciphertext{C: new(big.Int).Set(ct.C)}
		}
	}
	return out
}

// runShard is one shard aggregator: generate a batch of uploads, verify
// their proofs once, fold the accepted vectors into the pooled accumulators
// (with the ShardCrash injection point wrapping the fold in a
// checkpoint/resume retry loop), commit the partials, and move to the next
// batch. Steady-state fold memory is one upload batch plus 2×width big.Ints
// (accumulators and the rotating checkpoint), independent of shard size;
// what grows with the shard is what the audit retains (ingestSpec.retains).
//
// Verification runs exactly once per batch, before any fold attempt: its
// outcomes — the accepted set and the verifier's replay state — are durable
// across fold crashes, and a resume only refolds already-verified uploads
// from the restored checkpoint. That is the no-double-count argument: a
// device's upload is admitted at most once, and every fold attempt starts
// from a checkpoint that does not include the in-flight batch.
func (sp *ingestSpec) runShard(shard int, job shardRun) (*shardResult, error) {
	res := &shardResult{}
	n := job.src.count()
	if n == 0 {
		return res, nil
	}
	width := sp.width
	accs := make([]*ahe.Accumulator, width)
	for c := range accs {
		accs[c] = sp.pub.NewAccumulator()
	}
	// Rotating checkpoint: the partials as of the last completed batch plus
	// their commitment hash, overwritten in place at each boundary.
	checkpoint := make([]*ahe.Ciphertext, width)
	ckptHash := make([]byte, 0, sha256.Size)
	haveCkpt := false

	h := sha256.New()
	fill := make([]byte, (sp.pub.N2.BitLen()+7)/8)
	verifyHash := make([]byte, 0, sha256.Size)
	sc := zkp.NewScratch()
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
		// checkpoint is committed and no upload is half-folded, so a
		// deadline-canceled ingest aborts here without double-counting.
		if sp.ctx != nil {
			select {
			case <-sp.ctx.Done():
				return nil, fmt.Errorf("runtime: ingest canceled at shard %d batch %d: %w",
					shard, b, sp.ctx.Err())
			default:
			}
		}
		start := b * sp.batch
		cnt := sp.batch
		if start+cnt > n {
			cnt = n - start
		}
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
			for _, ct := range up.vec {
				res.bytes += int64(ct.Bytes())
			}
			res.bytes += int64(up.proof.Bytes())
			res.verified++
			if !job.verifier.VerifyScratch(sc, up.proof) {
				res.rejected++
				continue
			}
			vecs = append(vecs, up.vec)
			if sp.track {
				res.acceptedIdx = append(res.acceptedIdx, int32(start+i))
			}
		}
		var prev []*ahe.Ciphertext
		if sp.retains(b, nBatches) {
			prev = snapshotCts(checkpoint)
		}
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
				// The crash loses the in-flight fold. Restore the last
				// batch-boundary checkpoint, verifying it against the
				// recorded commitment before trusting it.
				if haveCkpt {
					verifyHash = ingestPartialHash(h, checkpoint, fill, verifyHash[:0])
					if !bytes.Equal(verifyHash, ckptHash) {
						return nil, fmt.Errorf("%w: shard %d checkpoint %d does not verify",
							ErrShardFailed, shard, b-1)
					}
				}
				for c, ct := range checkpoint {
					if ct == nil {
						accs[c].Reset()
					} else if err := accs[c].Set(ct); err != nil {
						return nil, err
					}
				}
				res.resumes++
				continue
			}
			for _, vec := range vecs {
				for c := 0; c < width; c++ {
					if err := accs[c].Add(vec[c]); err != nil {
						return nil, err
					}
				}
			}
			break
		}
		if b == corruptAt && !accs[0].Empty() {
			// Byzantine shard aggregator: silently shift cell 0's count and
			// carry the corruption forward, as a cheating aggregator would.
			bad, err := sp.pub.AddPlain(accs[0].Value(), big.NewInt(1000))
			if err != nil {
				return nil, err
			}
			if err := accs[0].Set(bad); err != nil {
				return nil, err
			}
		}
		// Batch boundary: rotate the checkpoint buffers and commit.
		for c := range accs {
			if accs[c].Empty() {
				checkpoint[c] = nil
				continue
			}
			if checkpoint[c] == nil {
				checkpoint[c] = &ahe.Ciphertext{C: new(big.Int)}
			}
			if err := accs[c].Snapshot(checkpoint[c]); err != nil {
				return nil, err
			}
		}
		res.leaves = ingestAccHash(h, accs, fill, res.leaves)
		ckptHash = append(ckptHash[:0], res.leaves[len(res.leaves)-sha256.Size:]...)
		haveCkpt = true
		if sp.retains(b, nBatches) {
			res.retained = append(res.retained, retainedBatch{
				batch:   b,
				prev:    prev,
				claimed: snapshotCts(checkpoint),
				inputs:  append([][]*ahe.Ciphertext(nil), vecs...),
			})
		}
		res.accepted += len(vecs)
		sp.gauge.sample(false)
	}
	if res.accepted > 0 {
		res.partial = make([]*ahe.Ciphertext, width)
		for c := range accs {
			res.partial[c] = accs[c].Value()
		}
	}
	return res, nil
}

// ingestResult is a completed sharded ingest.
type ingestResult struct {
	shards       []*shardResult
	sums         []*ahe.Ciphertext // hierarchically combined shard partials
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
	shards, err := parallel.Map(nil, len(jobs), sp.workers, func(s int) (*shardResult, error) {
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
	sums, sent, err := combinePartials(sp.pub, partials, sp.fanout, sp.workers)
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
// fanout until one vector remains, reporting the traffic the combine
// generated (aggregator-side: shard partials travel between aggregator
// tiers, not from devices). Every tree shape performs len(partials)−1
// additions per cell, so the traffic is the same at every fanout.
func combinePartials(pub *ahe.PublicKey, partials [][]*ahe.Ciphertext, fanout, workers int) ([]*ahe.Ciphertext, int64, error) {
	if fanout <= 1 {
		fanout = defaultCombineFanout
	}
	var total int64
	for len(partials) > 1 {
		next, sent, err := foldGroups(pub, partials, fanout, workers)
		if err != nil {
			return nil, 0, err
		}
		partials = next
		total += sent
	}
	return partials[0], total, nil
}

// auditIngest replays the retained batches against the global batch
// commitment: for each one, verify the Merkle inclusion of the claimed
// checkpoint, then recompute claimed = prev ⊞ Σ batch inputs and compare.
// A replay starts from the shard's own claimed prev, so it catches a lie
// only in the batch where it was told — every later batch recomputes
// consistently from the already-shifted checkpoint. Detection therefore
// needs every batch retained, which is what Run does (ingestSpec.retains).
func auditIngest(pub *ahe.PublicKey, res *ingestResult, m *Metrics) error {
	if res.tree == nil {
		return nil
	}
	var firstErr error
	h := sha256.New()
	fill := make([]byte, (pub.N2.BitLen()+7)/8)
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
// commitment tree.
func auditIngestBatch(pub *ahe.PublicKey, tree *merkle.Tree, leaf int, rb retainedBatch, h hash.Hash, fill []byte) error {
	proof, err := tree.Prove(leaf)
	if err != nil {
		return err
	}
	if !merkle.Verify(tree.Root(), ingestPartialHash(h, rb.claimed, fill, nil), proof) {
		return fmt.Errorf("runtime: ingest inclusion proof for batch %d failed", leaf)
	}
	// Shallow copy: the replay replaces cells, it never mutates one.
	running := append([]*ahe.Ciphertext(nil), rb.prev...)
	for _, vec := range rb.inputs {
		for c := range vec {
			if running[c] == nil {
				running[c] = vec[c]
				continue
			}
			sum, err := pub.Add(running[c], vec[c])
			if err != nil {
				return err
			}
			running[c] = sum
		}
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
// one batch of device ciphertexts per shard.
type deviceSource struct {
	d       *Deployment
	km      *keyMaterial
	devices []*Device // the shard's online devices, device order
	base    int       // global online index of devices[0]
	width   int
	hot     func(onlineIdx int, dev *Device) int
}

func (s *deviceSource) count() int { return len(s.devices) }

func (s *deviceSource) fill(buf []upload, start, n int) error {
	for i := 0; i < n; i++ {
		dev := s.devices[start+i]
		up, err := s.d.deviceUploadRetry(s.km, dev, s.width, s.hot(s.base+start+i, dev))
		if err != nil {
			return err
		}
		buf[i] = up
	}
	return nil
}

// ingest runs the pipeline over the deployment's online devices, cut into
// contiguous shard ranges in device order (so shard order IS device order
// and every coordinator tally below replays identically), audits every
// committed batch, and folds the shard-side counters into the metrics.
// fanout is the planner's sum-tree choice for the shard combine.
func (d *Deployment) ingest(km *keyMaterial, width, fanout int, hot func(onlineIdx int, dev *Device) int, track bool) (*ingestResult, error) {
	var online []*Device
	for _, dev := range d.Devices {
		if !dev.Offline { // churned devices simply do not upload
			online = append(online, dev)
		}
	}
	shards, batch := d.cfg.IngestShards, d.cfg.IngestBatch
	if shards <= 0 {
		shards = defaultIngestShards
	}
	if batch <= 0 {
		batch = defaultIngestBatch
	}
	sp := &ingestSpec{
		pub:     km.pub,
		width:   width,
		batch:   batch,
		fanout:  fanout,
		workers: d.workers(),
		plan:    d.cfg.Faults,
		track:   track,
		ctx:     d.runCtx,
	}
	jobs := make([]shardRun, shards)
	for s := 0; s < shards; s++ {
		lo := s * len(online) / shards
		hi := (s + 1) * len(online) / shards
		devs := online[lo:hi]
		keys := make(map[int][]byte, len(devs))
		for _, dev := range devs {
			keys[dev.ID] = dev.Key
		}
		jobs[s] = shardRun{
			base:     lo,
			src:      &deviceSource{d: d, km: km, devices: devs, base: lo, width: width, hot: hot},
			verifier: zkp.NewVerifier(keys),
		}
	}
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
	return res, nil
}

// collectInputs has every online device encrypt its one-hot row under the
// query key and prove it well formed; the shard aggregators verify each
// proof, drop invalid uploads, and fold the rest (Section 5.3). It returns
// the audited per-category sums and how many uploads were accepted.
func (d *Deployment) collectInputs(km *keyMaterial, fanout int) ([]*ahe.Ciphertext, int, error) {
	res, err := d.ingest(km, d.cfg.Categories, fanout, func(_ int, dev *Device) int { return dev.Category }, false)
	if err != nil {
		return nil, 0, err
	}
	return res.sums, res.accepted, nil
}

// collectBinned is collection for the bin protocol (sample.go): every online
// device uploads a b×C vector with its one-hot row in a uniformly random
// bin, zeros elsewhere, and a proof that the whole vector is one-hot. It
// returns the audited per-bin-per-category sums (for windowSums) and the
// (simulation-only) bin each accepted device chose. The bin draws consume
// the deployment RNG sequentially in device order BEFORE any shard task
// runs, so the stream is identical at every worker and shard count.
func (d *Deployment) collectBinned(km *keyMaterial, fanout int) ([]*ahe.Ciphertext, []int, error) {
	cats := d.cfg.Categories
	var chosen []int
	for _, dev := range d.Devices {
		if !dev.Offline {
			chosen = append(chosen, d.rng.Intn(sampleBinCount))
		}
	}
	res, err := d.ingest(km, sampleBinCount*cats, fanout, func(onlineIdx int, dev *Device) int {
		return chosen[onlineIdx]*cats + dev.Category
	}, true)
	if err != nil {
		return nil, nil, err
	}
	bins := make([]int, len(res.acceptedIdx))
	for i, idx := range res.acceptedIdx {
		bins[i] = chosen[idx]
	}
	return res.sums, bins, nil
}
