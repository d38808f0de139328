package planner

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"arboretum/internal/costmodel"
	"arboretum/internal/plan"
	"arboretum/internal/sortition"
)

// scorer turns vignette lists into six-metric cost vectors (Section 4.6). It
// holds no mutable state.
type scorer struct {
	n     int64
	model *costmodel.Model
}

func newScorer(n int64, model *costmodel.Model) *scorer {
	return &scorer{n: n, model: model}
}

// sizeTable memoizes sortition.MinCommitteeSize at sortition.DefaultSizeParams
// — the only parameters the planner sizes committees with — per power-of-two
// committee count, indexed by log2 of the count (0 = not solved yet). Every
// Plan call shares it, and concurrent calls may fill one entry at once: the
// solver is a pure function, so racing fills store equal values.
var sizeTable [bits.UintSize]atomic.Int32

// committeeSize returns the minimum committee size for c committees;
// failures (absurd parameter corners) saturate at the search cap.
func committeeSize(c int) int {
	lg := sizeBucket(c)
	if m := sizeTable[lg].Load(); m != 0 {
		return int(m)
	}
	m, err := sortition.MinCommitteeSize(1<<lg, sortition.DefaultSizeParams)
	if err != nil {
		m = sortition.DefaultSizeParams.Max
	}
	sizeTable[lg].Store(int32(m))
	return m
}

// sizeBucket buckets a committee count so the memo stays small and monotone:
// round up to the next power of two (conservative: more committees need
// bigger m) and return its log2.
func sizeBucket(c int) int {
	if c < 1 {
		c = 1
	}
	return bits.Len(uint(c - 1))
}

// breakdown carries the figure-oriented split alongside the vector.
type breakdown struct {
	byRole             [plan.NumRoles]plan.RoleCost // indexed by plan.Role
	roles              uint8                        // bit r: some committee vignette had role r (even at Count 0)
	baseCPU, baseBytes float64
	deviceExtraCPU     float64
	deviceExtraBytes   float64
	aggOpsCPU          float64
	aggVerifyCPU       float64
	aggForwardBytes    float64
}

// score prices a (possibly partial) list of pool vignettes, vs[ids[0]],
// vs[ids[1]], …. Partial lists use the committee size implied by the
// committees seen so far, which underestimates the final cost — exactly the
// admissible lower bound branch-and-bound needs.
//
// It is a left fold — add, one vignette at a time, in list order — closed by
// finish. The search's frame stack runs the same two functions over the same
// vignettes in the same order, so its floats are score's, bit for bit.
func (sc *scorer) score(vs []plan.Vignette, ids []int32) (costmodel.Vector, breakdown, int) {
	var f frame
	for _, v := range ids {
		f.committees += vs[v].Committees()
	}
	f.m = committeeSize(int(f.committees))
	for _, v := range ids {
		cpu, bytes := vs[v].MemberCost(sc.model, f.m)
		sc.add(&f, &vs[v], cpu, bytes)
	}
	return f.finish(), f.bd, f.m
}

// frame is the running state of score's fold: the sums over the vignettes
// added so far, the committees they consume, and the committee size m every
// one of them was priced at.
type frame struct {
	v          costmodel.Vector // PartMax* stay zero: finish derives them
	bd         breakdown
	committees int64
	m          int
}

// add folds one vignette into f; cpu and bytes are its MemberCost at f.m.
func (sc *scorer) add(f *frame, vig *plan.Vignette, cpu, bytes float64) {
	v, bd := &f.v, &f.bd
	n := float64(sc.n)
	switch vig.Loc {
	case plan.Aggregator:
		total := cpu * float64(vig.Count)
		v.AggCPU += total
		verify := float64(vig.Work.ZKPVerifies)*sc.model.ZKPVerify +
			float64(vig.Work.SigVerifies)*sc.model.SigVerify +
			float64(vig.Work.MerkleOps)*sc.model.MerkleHash
		verify *= float64(vig.Count)
		bd.aggVerifyCPU += verify
		bd.aggOpsCPU += total - verify
		sent := bytes * float64(vig.Count)
		// Audit responses and certificates go to every device.
		sent += float64(vig.Work.Audits) * (sc.model.AuditRespBytes + sc.model.CertBytes) * float64(vig.Count)
		v.AggBytes += sent
	case plan.Device:
		frac := float64(vig.Count) / n
		if frac > 1 {
			frac = 1
		}
		v.PartExpCPU += cpu * frac
		v.PartExpBytes += bytes * frac
		if vig.Count >= sc.n {
			// Work every device does (encryption, proofs).
			bd.baseCPU += cpu
			bd.baseBytes += bytes
		} else {
			// Outsourced work only some devices do (sum-tree vertices).
			if cpu > bd.deviceExtraCPU {
				bd.deviceExtraCPU = cpu
			}
			if bytes > bd.deviceExtraBytes {
				bd.deviceExtraBytes = bytes
			}
		}
	case plan.Committee:
		members := float64(vig.Count) * float64(f.m)
		frac := members / n
		if frac > 1 {
			frac = 1
		}
		v.PartExpCPU += cpu * frac
		v.PartExpBytes += bytes * frac
		rc := &bd.byRole[vig.Role]
		bd.roles |= 1 << vig.Role
		// A device serves on at most one committee, so the role's
		// worst case is the most expensive single vignette.
		if cpu > rc.CPU {
			rc.CPU = cpu
		}
		if bytes > rc.Bytes {
			rc.Bytes = bytes
		}
		rc.Count += vig.Count
		// Committee traffic transits the aggregator's mailbox
		// (Section 5.4), so the aggregator forwards it all.
		fwd := bytes * members
		bd.aggForwardBytes += fwd
		v.AggBytes += fwd
	}
}

// finish returns the cost of the vignettes folded into f so far, closing the
// sums with the maximum participant cost: every device pays the base; the
// unlucky one additionally serves on the most expensive committee (or
// sum-tree vertex, whichever is worse). f itself stays open for more adds.
func (f *frame) finish() costmodel.Vector {
	worstCPU, worstBytes := f.bd.deviceExtraCPU, f.bd.deviceExtraBytes
	for _, rc := range &f.bd.byRole {
		if rc.CPU > worstCPU {
			worstCPU = rc.CPU
		}
		if rc.Bytes > worstBytes {
			worstBytes = rc.Bytes
		}
	}
	v := f.v
	v.PartMaxCPU = f.bd.baseCPU + worstCPU
	v.PartMaxBytes = f.bd.baseBytes + worstBytes
	return v
}

// frameStack scores the prefixes of one search incrementally: frames[d]
// is score's fold over the keygen vignette plus the options idx[:d] picks
// from the first d tree levels, so descending to a child copies its parent's
// frame and adds only the child's own vignettes, and returning costs nothing
// — the next sibling overwrites the slot. A prefix's committee size m comes
// from its committee count and MemberCost scales MPC bytes by m, so a child
// whose m differs from its parent's cannot extend the parent's sums: it
// extends alt[d] instead, the parent's prefix folded again at the child's m.
// That re-fold is done once and reused by every later sibling landing on the
// same m, until a push at level d-1 replaces the parent (m 0 marks it stale).
// A child that only crosses into another size bucket keeps its parent's m
// (sizeTable saturates) and extends the parent frame like any other.
//
// Either way each vignette's MemberCost is looked up, not computed: costs
// prices every vignette of the search's pool once per m the search meets, so
// options that share a vignette share its price. Nothing here — the pool
// included — is shared between Plan calls.
type frameStack struct {
	sc     *scorer
	vs     []plan.Vignette // the search's pool; vs[0] is the keygen vignette
	opts   [][]option
	idx    []int
	frames []frame
	alt    []frame // alt[d]: frames[d]'s prefix at another m (m 0 = none yet)

	sizes  []int                // the committee sizes met so far
	costs  [][]memberCost       // costs[k][v]: vs[v]'s MemberCost at sizes[k]
	floors [][]costmodel.Vector // floors[k]: floor's table at sizes[k] (nil = not built yet)
}

type memberCost struct{ cpu, bytes float64 }

func newFrameStack(sc *scorer, vs []plan.Vignette, opts [][]option) *frameStack {
	fs := &frameStack{
		sc:     sc,
		vs:     vs,
		opts:   opts,
		idx:    make([]int, len(opts)),
		frames: make([]frame, len(opts)+1),
		alt:    make([]frame, len(opts)+1),
	}
	c := vs[0].Committees()
	fs.refold(&fs.frames[0], 0, c, committeeSize(int(c)))
	return fs
}

// push makes option j of level d the prefix's d-th choice and scores the
// longer prefix into frames[d+1].
func (fs *frameStack) push(d, j int) {
	fs.idx[d] = j
	fs.alt[d+1].m = 0 // frames[d+1] is about to change
	parent := &fs.frames[d]
	ids := fs.opts[d][j].vigs
	committees := parent.committees
	for _, v := range ids {
		committees += fs.vs[v].Committees()
	}
	if m := committeeSize(int(committees)); m != parent.m {
		if parent = &fs.alt[d]; parent.m != m {
			fs.refold(parent, d, fs.frames[d].committees, m)
		}
	}
	f := &fs.frames[d+1]
	*f = *parent
	f.committees = committees
	fs.fold(f, ids)
}

// refold sets f to score's fold, at committee size m, of the prefix idx[:d]
// with the given committee count.
func (fs *frameStack) refold(f *frame, d int, committees int64, m int) {
	*f = frame{committees: committees, m: m}
	fs.fold(f, []int32{0})
	for l, j := range fs.idx[:d] {
		fs.fold(f, fs.opts[l][j].vigs)
	}
}

// size returns the k with sizes[k] == m, registering and pricing m on first
// sight.
func (fs *frameStack) size(m int) int {
	k := slices.Index(fs.sizes, m)
	if k < 0 {
		k = len(fs.sizes)
		fs.sizes = append(fs.sizes, m)
		costs := make([]memberCost, len(fs.vs))
		for v := range costs {
			costs[v].cpu, costs[v].bytes = fs.vs[v].MemberCost(fs.sc.model, m)
		}
		fs.costs = append(fs.costs, costs)
		fs.floors = append(fs.floors, nil)
	}
	return k
}

// fold adds the pool vignettes ids to f at f.m.
func (fs *frameStack) fold(f *frame, ids []int32) {
	costs := fs.costs[fs.size(f.m)]
	for _, v := range ids {
		fs.sc.add(f, &fs.vs[v], costs[v].cpu, costs[v].bytes)
	}
}

// floor returns the search's look-ahead at committee size m: floor(m)[d] is
// at most what choosing levels d and below adds to any prefix priced at m,
// so a depth-d node whose partial cost plus floor(m)[d] already breaks a
// limit or loses to the incumbent has no completion that does better. Each
// level contributes its cheapest option in every additive component —
// AggCPU, AggBytes, PartExpCPU, PartExpBytes, and in PartMaxCPU and
// PartMaxBytes the base every device pays — priced by folding the option
// alone into an empty frame at m. That is a lower bound because every
// component is a sum of non-negative per-vignette terms, each only growing
// with m (MemberCost scales MPC bytes by m, committee fractions grow with
// it), and the final m is at least the prefix's; PartMax* add to the base a
// worst-participant term that only grows too. The table is scaled down by
// 1e-9 so that float rounding never lifts a bound above a completion the
// fold computes. It is built on the first node at m and kept for the search.
func (fs *frameStack) floor(m int) []costmodel.Vector {
	k := fs.size(m)
	if fs.floors[k] != nil {
		return fs.floors[k]
	}
	table := make([]costmodel.Vector, len(fs.opts)+1)
	for l := len(fs.opts) - 1; l >= 0; l-- {
		var least costmodel.Vector
		for j, o := range fs.opts[l] {
			f := frame{m: m}
			fs.fold(&f, o.vigs)
			v := f.v
			v.PartMaxCPU, v.PartMaxBytes = f.bd.baseCPU, f.bd.baseBytes
			if j == 0 {
				least = v
				continue
			}
			least.AggCPU = min(least.AggCPU, v.AggCPU)
			least.AggBytes = min(least.AggBytes, v.AggBytes)
			least.PartExpCPU = min(least.PartExpCPU, v.PartExpCPU)
			least.PartExpBytes = min(least.PartExpBytes, v.PartExpBytes)
			least.PartMaxCPU = min(least.PartMaxCPU, v.PartMaxCPU)
			least.PartMaxBytes = min(least.PartMaxBytes, v.PartMaxBytes)
		}
		table[l] = addCost(table[l+1], least)
	}
	const slack = 1 - 1e-9
	for d := range table {
		v := &table[d]
		v.AggCPU *= slack
		v.AggBytes *= slack
		v.PartExpCPU *= slack
		v.PartExpBytes *= slack
		v.PartMaxCPU *= slack
		v.PartMaxBytes *= slack
	}
	fs.floors[k] = table
	return table
}

// addCost is a + b, component by component.
func addCost(a, b costmodel.Vector) costmodel.Vector {
	return costmodel.Vector{
		AggCPU: a.AggCPU + b.AggCPU, AggBytes: a.AggBytes + b.AggBytes,
		PartExpCPU: a.PartExpCPU + b.PartExpCPU, PartExpBytes: a.PartExpBytes + b.PartExpBytes,
		PartMaxCPU: a.PartMaxCPU + b.PartMaxCPU, PartMaxBytes: a.PartMaxBytes + b.PartMaxBytes,
	}
}

// roleMap converts the per-role table to Plan.ByRole's map: exactly the roles
// some committee vignette had, so readers that range over it see no empty role.
func (bd *breakdown) roleMap() map[plan.Role]plan.RoleCost {
	m := map[plan.Role]plan.RoleCost{}
	for r, rc := range bd.byRole {
		if bd.roles&(1<<r) != 0 {
			m[plan.Role(r)] = rc
		}
	}
	return m
}
