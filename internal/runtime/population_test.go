package runtime

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"

	"arboretum/internal/ahe"
	"arboretum/internal/faults"
	"arboretum/internal/zkp"
)

// A virtualPopulation derives per-device state (signing key, category) on
// demand from a 64-bit seed, so the streaming ingest pipeline can be driven
// at 10^7–10^8 simulated devices: per-device state is O(1), computed inside
// the shard that consumes it, and nothing population-sized is ever
// materialized. The ingest benchmarks, the memory-flatness smoke, and the
// exact-count crash tests all run on it.
type virtualPopulation struct {
	seed       uint64
	n          int
	categories int

	// Cached per-category packed template rows and their codec
	// (templatesFor): encrypting them would otherwise swamp every benchmark
	// iteration's allocation count with setup noise.
	tmplPub   *ahe.PublicKey
	codec     *ahe.Packing
	templates [][]*ahe.Ciphertext
}

func newVirtualPopulation(seed uint64, n, categories int) *virtualPopulation {
	return &virtualPopulation{seed: seed, n: n, categories: categories}
}

// key derives device i's proof-signing key, SHA-256(seed ‖ i). Returned by
// value so hot paths can keep it out of the heap.
func (p *virtualPopulation) key(i int) [sha256.Size]byte {
	var msg [16]byte
	binary.LittleEndian.PutUint64(msg[0:], p.seed)
	binary.LittleEndian.PutUint64(msg[8:], uint64(i))
	return sha256.Sum256(msg[:])
}

// keyFunc adapts key to the verifier's on-demand lookup; the closure reuses
// one buffer, which KeyFunc's contract allows (the key is only read before
// the next call). Each shard verifier gets its own closure.
func (p *virtualPopulation) keyFunc() zkp.KeyFunc {
	buf := new([sha256.Size]byte)
	return func(dev int) []byte {
		if dev < 0 || dev >= p.n {
			return nil
		}
		*buf = p.key(dev)
		return buf[:]
	}
}

// category assigns device i a category from the same halving distribution as
// Deployment.defaultData (category 0 is the mode), but as a pure function of
// (seed, i) — tests recompute the exact expected histogram by iterating it.
func (p *virtualPopulation) category(i int) int {
	x := p.seed + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	c := 0
	for x&1 == 1 && c < p.categories-1 {
		c++
		x >>= 1
	}
	return c
}

// histogram iterates the population's exact per-category counts — the
// oracle the exact-count ingest tests decrypt against.
func (p *virtualPopulation) histogram() []int64 {
	counts := make([]int64, p.categories)
	for i := 0; i < p.n; i++ {
		counts[p.category(i)]++
	}
	return counts
}

// templateSource is the virtual population's upload source: every device of
// a category shares one pre-encrypted packed row — the homomorphic fold
// neither knows nor cares that ciphertext values repeat — while proofs are
// generated per device on pooled scratch, because the verifier binds each
// proof to the device identity and query. Upload generation is therefore
// ~2 µs and zero steady-state allocations per device, which is what makes
// 10^7-device sweeps tractable where real per-device encryption (~ms) is
// not. Correctness is unaffected: proofs, replay protection, folding,
// commitments, and audits all run exactly as they do for real uploads.
type templateSource struct {
	pop     *virtualPopulation
	queryID uint64
	base, n int // the shard's device range [base, base+n)

	templates [][]*ahe.Ciphertext // shared per-category packed rows (immutable)
	sc        *zkp.Scratch
	witness   []int64
	lastHot   int
	keyBuf    [sha256.Size]byte
}

func (s *templateSource) count() int { return s.n }

func (s *templateSource) fill(buf []upload, start, n int) error {
	width := s.pop.categories
	claim := zkp.Claim{Kind: zkp.ClaimOneHot, VectorLen: width}
	for i := 0; i < n; i++ {
		dev := s.base + start + i
		cat := s.pop.category(dev)
		s.witness[s.lastHot] = 0
		s.witness[cat] = 1
		s.lastHot = cat
		s.keyBuf = s.pop.key(dev)
		pr := buf[i].proof
		if pr == nil {
			pr = new(zkp.Proof) // batch-slot reuse: allocated once per slot
		}
		stmt := zkp.Statement{Device: dev, QueryID: s.queryID, Claim: claim}
		if err := zkp.ProveKeyed(s.sc, s.keyBuf[:], stmt, zkp.Witness{Vector: s.witness}, pr); err != nil {
			return err
		}
		buf[i] = upload{vec: s.templates[cat], proof: pr, uploadEvent: uploadEvent{dev: dev}}
	}
	return nil
}

// templatesFor returns the population's per-category packed template rows
// under pub — one row per category, packed for the population's size the
// way a deployment packs its devices' rows and shared across every shard —
// encrypting and caching them on first use (benchmarks call this in setup
// so the timed loop starts warm). Not safe for concurrent first calls; the
// pipeline only reads the result.
func (p *virtualPopulation) templatesFor(pub *ahe.PublicKey) ([][]*ahe.Ciphertext, error) {
	if p.tmplPub == pub && p.templates != nil {
		return p.templates, nil
	}
	codec, err := pub.NewPacking(p.n, p.categories)
	if err != nil {
		return nil, err
	}
	templates := make([][]*ahe.Ciphertext, p.categories)
	for cat := range templates {
		row, err := codec.Encrypt(rand.Reader, cat)
		if err != nil {
			return nil, err
		}
		templates[cat] = row
	}
	p.tmplPub, p.codec, p.templates = pub, codec, templates
	return templates, nil
}

// shardRuns cuts the population into contiguous shard ranges, each with a
// template upload source and a shard-scoped verifier.
func (p *virtualPopulation) shardRuns(pub *ahe.PublicKey, queryID uint64, shards int) ([]shardRun, error) {
	templates, err := p.templatesFor(pub)
	if err != nil {
		return nil, err
	}
	jobs := make([]shardRun, shards)
	for s := range jobs {
		lo := s * p.n / shards
		hi := (s + 1) * p.n / shards
		jobs[s] = shardRun{
			base: lo,
			src: &templateSource{
				pop: p, queryID: queryID, base: lo, n: hi - lo,
				templates: templates, sc: zkp.NewScratch(), witness: make([]int64, p.categories),
			},
			verifier: zkp.NewVerifierFunc(p.keyFunc(), lo, hi),
		}
	}
	return jobs, nil
}

// virtualIngest runs the streaming pipeline over a virtual population — the
// entry point for the ingest benchmarks and the crash/memory tests. The
// returned sums stay packed: with no faults fired, decrypting them and
// unpacking with pop.codec yields pop.histogram exactly.
// It is the one caller that samples the audit (ingestSpec.sampleAudit): its
// job is showing fold memory flat at 10^6–10^7 devices.
func virtualIngest(pop *virtualPopulation, pub *ahe.PublicKey, queryID uint64, shards, batch, workers int, plan *faults.Plan, gauge *heapGauge) (*ingestResult, error) {
	if shards <= 0 {
		shards = defaultIngestShards
	}
	if batch <= 0 {
		batch = defaultIngestBatch
	}
	jobs, err := pop.shardRuns(pub, queryID, shards)
	if err != nil {
		return nil, err
	}
	return runShardedIngest(&ingestSpec{
		pub: pub, width: pop.codec.Ciphertexts(), batch: batch,
		workers: workers, plan: plan, gauge: gauge, sampleAudit: true,
	}, jobs)
}

// peakBytes returns the largest heap allocation observed.
func (g *heapGauge) peakBytes() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}
