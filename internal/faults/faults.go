// Package faults is Arboretum's deterministic fault-injection engine: the
// simulation machinery behind the runtime's chaos tests and the CLI's
// -faults flag (docs/FAULTS.md).
//
// A Plan decides, for every named injection point the runtime exposes,
// whether a typed fault fires there. Every decision is a pure function of
// (plan seed, fault kind, injection-point coordinates): the plan derives a
// per-decision stream from the internal/benchrand SHA-256 counter DRBG, so a
// schedule replays bit-for-bit from its seed — independent of worker count,
// goroutine interleaving, and evaluation order. That is what makes a chaos
// run reproducible with `arboretum run -faults seed=N,...`.
//
// The package is listed in tools/arblint's policy table as simulation-exempt
// (policy.SimulationExempt): its seeded math/rand-style draws decide which
// simulated device fails, never key material, shares, sortition tickets, or
// released noise, so the randsource ban does not apply here.
package faults

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"arboretum/internal/benchrand"
)

// Kind is a typed fault category, one per injection point in the runtime's
// execution path (the taxonomy of docs/FAULTS.md).
type Kind int

// Kind values are pinned, never renumbered: the kind is hashed into every
// Fires and Pick decision, so a seeded schedule replays unchanged only while
// its kinds keep their numbers. Value 3 belonged to the retired
// aggregator-crash kind (a fold crash is ShardCrash now) and stays unused.
const (
	// UploadTimeout: a device's upload attempt times out during input
	// collection. Coordinates: (device ID, attempt).
	UploadTimeout Kind = 0
	// MemberDropout: a committee member becomes unreachable after an MPC
	// communication round inside a mechanism vignette. Coordinates:
	// (vignette sequence, attempt, round).
	MemberDropout Kind = 1
	// DealerFailure: an old-committee member vanishes mid-hand-off before
	// dealing its VSR sub-shares. Coordinates: (transfer sequence, attempt,
	// dealer position).
	DealerFailure Kind = 2
	// WALCrash: the analyst-gateway daemon dies while writing its ledger WAL
	// (internal/ledger) — one record, or a compaction's rewrite, which is
	// addressed as the record after the last durable one. Coordinates:
	// (record sequence, stage), where stage 0 crashes before any byte is
	// written (a rewrite: on a torn temp file) and stage 1 after a torn
	// partial write (a rewrite: between the temp file's fsync and the
	// rename). A forced "wal@N" therefore crashes before record N reaches
	// the disk; rates exercise both stages. Recovery is the ledger's replay
	// on reopen (docs/SERVICE.md).
	WALCrash Kind = 4
	// ShardCrash: an ingest shard aggregator dies while folding one upload
	// batch; it must resume from its last batch-boundary checkpoint,
	// re-verified against the recorded commitment hash (docs/INGEST.md).
	// Coordinates: (shard, batch, attempt), so a forced "shard@N" crashes
	// shard N's first fold of its first batch.
	ShardCrash Kind = 5
	// DaemonCrash: the arboretumd gateway process dies at a job-lifecycle
	// boundary (internal/service). Coordinates: (job sequence, stage),
	// where stage 0 crashes before the claim record is durable, 1 after
	// it is durable but before execution, 2 mid-execute (the run is
	// canceled at its next checkpoint, then the daemon dies), and 3 after
	// the run completes but before the budget commit. A forced "daemon@N"
	// therefore kills the daemon just as job N is claimed; rates exercise
	// every stage. Recovery is the ledger's replay + deterministic
	// re-execution on restart (docs/SERVICE.md).
	DaemonCrash Kind = 6

	numKinds = 7 // one past the highest value; sizes the per-kind tables
)

// kindNames holds each kind's spec-string name; the retired value has none.
var kindNames = [numKinds]string{
	UploadTimeout: "upload", MemberDropout: "dropout", DealerFailure: "dealer",
	WALCrash: "wal", ShardCrash: "shard", DaemonCrash: "daemon",
}

// valid reports whether k is a live kind.
func (k Kind) valid() bool {
	return k >= 0 && k < numKinds && kindNames[k] != ""
}

// String returns the kind's spec-string name.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// kindByName resolves a spec-string name.
func kindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n != "" && n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// Fault is one fault that actually fired, as recorded by the runtime when it
// acted on a Fires decision.
type Fault struct {
	Kind Kind
	Idx  []int  // the injection point's coordinates
	Note string // what happened / how it was handled
}

// Plan is a seeded fault schedule. The zero of every rate means "never"; a
// nil *Plan is valid everywhere and injects nothing, so the runtime can
// thread an optional plan without nil checks.
//
// Decision methods (Fires, Pick) are pure and safe for concurrent use; the
// fired-fault log (Record/Fired) is mutex-protected so pool workers may
// record, though the runtime records sequentially to keep log order
// deterministic.
type Plan struct {
	seed     uint64
	rates    [numKinds]float64
	forced   [numKinds]map[int]bool
	forcedAt [numKinds]map[string]bool

	mu    sync.Mutex
	fired []Fault
}

// New returns an empty plan (no rates, no forced faults) for the seed.
func New(seed uint64) *Plan {
	return &Plan{seed: seed}
}

// Seed returns the plan's replay seed.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// SetRate makes kind fire independently at each injection point with the
// given probability (of the seeded stream, not of system entropy). It
// returns the plan for chaining.
func (p *Plan) SetRate(k Kind, rate float64) *Plan {
	p.rates[k] = rate
	return p
}

// Force makes kind fire deterministically at the injection point whose first
// coordinate is seq and whose remaining coordinates are zero — e.g.
// Force(ShardCrash, 1) crashes shard 1's first fold of its first batch, and
// Force(MemberDropout, 0) drops a member after the first round of the first
// attempt of vignette 0. It returns the plan for chaining.
func (p *Plan) Force(k Kind, seq int) *Plan {
	if p.forced[k] == nil {
		p.forced[k] = map[int]bool{}
	}
	p.forced[k][seq] = true
	return p
}

// ForceAt makes kind fire deterministically at the exact injection point
// idx — every coordinate significant, unlike Force's first-coordinate form
// (so ForceAt(DaemonCrash, 3, 2) kills the daemon mid-execute of job 3,
// which "daemon@3" cannot express). The spec form is "kind@a.b.c". It
// returns the plan for chaining.
func (p *Plan) ForceAt(k Kind, idx ...int) *Plan {
	if p.forcedAt[k] == nil {
		p.forcedAt[k] = map[string]bool{}
	}
	p.forcedAt[k][idxKey(idx)] = true
	return p
}

// idxKey renders coordinates in the spec's dotted form ("3.2").
func idxKey(idx []int) string {
	var b strings.Builder
	for i, v := range idx {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// domain tags separate the derived streams of the plan's decision functions.
const (
	domainFires = 0x6669726573 // "fires"
	domainPick  = 0x7069636b   // "pick"
)

// hash mixes the seed, a domain tag, the kind, and the injection-point
// coordinates into the 64-bit seed of a benchrand stream (FNV-1a over the
// little-endian words).
func (p *Plan) hash(domain uint64, k Kind, idx []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
	}
	mix(p.seed)
	mix(domain)
	mix(uint64(k))
	for _, i := range idx {
		mix(uint64(int64(i)))
	}
	return h
}

// uniform returns the decision point's uniform draw in [0, 1).
func (p *Plan) uniform(k Kind, idx []int) float64 {
	var b [8]byte
	// benchrand.Reader never errors.
	_, _ = benchrand.New(p.hash(domainFires, k, idx)).Read(b[:])
	return float64(binary.LittleEndian.Uint64(b[:])>>11) / float64(1<<53)
}

// Fires reports whether kind faults at the injection point with coordinates
// idx. It is a pure function of (seed, kind, idx) — calling it twice, in any
// order, from any goroutine, gives the same answer.
func (p *Plan) Fires(k Kind, idx ...int) bool {
	if p == nil || !k.valid() {
		return false
	}
	if p.forcedAt[k] != nil && p.forcedAt[k][idxKey(idx)] {
		return true
	}
	if len(idx) > 0 && p.forced[k][idx[0]] {
		rest := true
		for _, i := range idx[1:] {
			if i != 0 {
				rest = false
				break
			}
		}
		if rest {
			return true
		}
	}
	rate := p.rates[k]
	if rate <= 0 {
		return false
	}
	return p.uniform(k, idx) < rate
}

// Pick selects a victim index in [0, n) for a fault that fired at the
// injection point — e.g. which of the still-reachable committee members
// drops. The draw comes from a math/rand generator seeded from the plan
// stream (the simulation-exempt use the arblint policy table documents), so
// it is as replayable as Fires.
func (p *Plan) Pick(n int, k Kind, idx ...int) int {
	if p == nil || n <= 1 {
		return 0
	}
	var b [8]byte
	_, _ = benchrand.New(p.hash(domainPick, k, idx)).Read(b[:])
	seed := int64(binary.LittleEndian.Uint64(b[:]) >> 1)
	return rand.New(rand.NewSource(seed)).Intn(n)
}

// Record appends a fault the runtime acted on to the plan's log.
func (p *Plan) Record(f Fault) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f.Idx = append([]int(nil), f.Idx...)
	p.fired = append(p.fired, f)
}

// Fired returns a copy of the fired-fault log in record order. The runtime
// records on the coordinating goroutine (device order for uploads), so for a
// given plan and query the log is identical at every worker count.
func (p *Plan) Fired() []Fault {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Fault, len(p.fired))
	for i, f := range p.fired {
		out[i] = Fault{Kind: f.Kind, Idx: append([]int(nil), f.Idx...), Note: f.Note}
	}
	return out
}

// Parse builds a plan from a replay spec: comma-separated entries of
//
//	seed=N        the replay seed (default 0)
//	<kind>=<rate> an independent per-injection-point probability in [0, 1]
//	<kind>@<seq>  a forced fault (see Force)
//
// with kinds upload, dropout, dealer, wal, shard, daemon — e.g.
// "seed=7,upload=0.05,dropout=0.01,shard@1". An empty spec returns a nil
// plan (no injection).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := New(0)
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if at := strings.IndexByte(tok, '@'); at >= 0 {
			k, ok := kindByName(tok[:at])
			if !ok {
				return nil, fmt.Errorf("faults: unknown kind %q in %q", tok[:at], tok)
			}
			// "kind@N" forces the first coordinate (Force); "kind@a.b.c"
			// pins every coordinate (ForceAt).
			coords := strings.Split(tok[at+1:], ".")
			idx := make([]int, len(coords))
			for i, c := range coords {
				v, err := strconv.Atoi(c)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("faults: bad forced index in %q", tok)
				}
				idx[i] = v
			}
			if len(idx) == 1 {
				p.Force(k, idx[0])
			} else {
				p.ForceAt(k, idx...)
			}
			continue
		}
		eq := strings.IndexByte(tok, '=')
		if eq < 0 {
			return nil, fmt.Errorf("faults: entry %q is not seed=N, kind=rate, or kind@seq", tok)
		}
		key, val := tok[:eq], tok[eq+1:]
		if key == "seed" {
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			p.seed = seed
			continue
		}
		k, ok := kindByName(key)
		if !ok {
			return nil, fmt.Errorf("faults: unknown kind %q in %q", key, tok)
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil || rate < 0 || rate > 1 {
			return nil, fmt.Errorf("faults: rate in %q must be in [0, 1]", tok)
		}
		p.SetRate(k, rate)
	}
	return p, nil
}

// String renders the plan in canonical Parse form: seed first, then each
// kind's rate and sorted forced entries in kind order. Parse(p.String()) is
// equivalent to p.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := []string{fmt.Sprintf("seed=%d", p.seed)}
	for k := Kind(0); k < numKinds; k++ {
		if p.rates[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, p.rates[k]))
		}
		if len(p.forced[k]) > 0 {
			seqs := make([]int, 0, len(p.forced[k]))
			for seq := range p.forced[k] {
				seqs = append(seqs, seq)
			}
			sort.Ints(seqs)
			for _, seq := range seqs {
				parts = append(parts, fmt.Sprintf("%s@%d", k, seq))
			}
		}
		if len(p.forcedAt[k]) > 0 {
			keys := make([]string, 0, len(p.forcedAt[k]))
			for key := range p.forcedAt[k] {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				parts = append(parts, fmt.Sprintf("%s@%s", k, key))
			}
		}
	}
	return strings.Join(parts, ",")
}
