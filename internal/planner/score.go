package planner

import (
	"math"
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

// score prices a (possibly partial) vignette list. Partial lists use the
// committee size implied by the committees seen so far, which underestimates
// the final cost — exactly the admissible lower bound branch-and-bound needs.
//
// It is a left fold — add, one vignette at a time, in list order — closed by
// finish. The search's frame stack runs the same two functions over the same
// vignettes in the same order, so its floats are score's, bit for bit.
func (sc *scorer) score(vs []plan.Vignette) (costmodel.Vector, breakdown, int) {
	var f frame
	for i := range vs {
		f.committees += vs[i].Committees()
	}
	f.m = committeeSize(int(f.committees))
	for i := range vs {
		cpu, bytes := vs[i].MemberCost(sc.model, f.m)
		sc.add(&f, &vs[i], cpu, bytes)
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
		rc.CPU = math.Max(rc.CPU, cpu)
		rc.Bytes = math.Max(rc.Bytes, bytes)
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
// holds it once per (option, m) the search has met. Nothing here is shared
// between Plan calls.
type frameStack struct {
	sc     *scorer
	opts   [][]option
	keygen [1]plan.Vignette
	idx    []int
	frames []frame
	alt    []frame // alt[d]: frames[d]'s prefix at another m (m 0 = none yet)

	base  []int        // base[l]+j numbers opts[l][j]; 0 is the keygen vignette
	sizes []int        // the committee sizes met so far
	at    [][]int32    // at[k][id]: 1 + where option id's costs at sizes[k] start (0 = not priced yet)
	costs []memberCost // MemberCost per vignette, one run per priced (option, m)
}

type memberCost struct{ cpu, bytes float64 }

func newFrameStack(sc *scorer, opts [][]option) *frameStack {
	fs := &frameStack{
		sc:     sc,
		opts:   opts,
		keygen: [1]plan.Vignette{keygenVignette()},
		idx:    make([]int, len(opts)),
		frames: make([]frame, len(opts)+1),
		alt:    make([]frame, len(opts)+1),
		base:   make([]int, len(opts)+1),
	}
	fs.base[0] = 1
	vignettes := 1
	for l, os := range opts {
		fs.base[l+1] = fs.base[l] + len(os)
		for j := range os {
			vignettes += len(os[j].vignettes)
		}
	}
	// Most options meet one committee size: room for each once and a quarter
	// again seldom has to grow.
	fs.costs = make([]memberCost, 0, vignettes+vignettes/4)
	c := fs.keygen[0].Committees()
	fs.refold(&fs.frames[0], 0, c, committeeSize(int(c)))
	return fs
}

// push makes option j of level d the prefix's d-th choice and scores the
// longer prefix into frames[d+1].
func (fs *frameStack) push(d, j int) {
	fs.idx[d] = j
	fs.alt[d+1].m = 0 // frames[d+1] is about to change
	parent := &fs.frames[d]
	vs := fs.opts[d][j].vignettes
	committees := parent.committees
	for i := range vs {
		committees += vs[i].Committees()
	}
	if m := committeeSize(int(committees)); m != parent.m {
		if parent = &fs.alt[d]; parent.m != m {
			fs.refold(parent, d, fs.frames[d].committees, m)
		}
	}
	f := &fs.frames[d+1]
	*f = *parent
	f.committees = committees
	fs.fold(f, fs.base[d]+j, vs)
}

// refold sets f to score's fold, at committee size m, of the prefix idx[:d]
// with the given committee count.
func (fs *frameStack) refold(f *frame, d int, committees int64, m int) {
	*f = frame{committees: committees, m: m}
	fs.fold(f, 0, fs.keygen[:])
	for l, j := range fs.idx[:d] {
		fs.fold(f, fs.base[l]+j, fs.opts[l][j].vignettes)
	}
}

// fold adds option id's vignettes vs to f at f.m.
func (fs *frameStack) fold(f *frame, id int, vs []plan.Vignette) {
	k := slices.Index(fs.sizes, f.m)
	if k < 0 {
		k = len(fs.sizes)
		fs.sizes = append(fs.sizes, f.m)
		fs.at = append(fs.at, make([]int32, fs.base[len(fs.opts)]))
	}
	at := &fs.at[k][id]
	if *at == 0 {
		*at = int32(len(fs.costs)) + 1
		for i := range vs {
			cpu, bytes := vs[i].MemberCost(fs.sc.model, f.m)
			fs.costs = append(fs.costs, memberCost{cpu, bytes})
		}
	}
	costs := fs.costs[*at-1:]
	for i := range vs {
		fs.sc.add(f, &vs[i], costs[i].cpu, costs[i].bytes)
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
