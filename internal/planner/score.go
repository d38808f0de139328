package planner

import (
	"math"
	"math/bits"
	"sync/atomic"

	"arboretum/internal/costmodel"
	"arboretum/internal/plan"
	"arboretum/internal/sortition"
)

// scorer turns vignette lists into six-metric cost vectors (Section 4.6). It
// holds no mutable state, so the search's pool tasks share the caller's.
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
// Plan call and every pool task shares it: the solver is a pure function, so
// racing fills of one entry store equal values.
var sizeTable [bits.UintSize]atomic.Int32

// committeeSize returns the minimum committee size for c committees;
// failures (absurd parameter corners) saturate at the search cap.
func committeeSize(c int) int {
	if c < 1 {
		c = 1
	}
	// Bucket the count so the memo stays small and monotone: round up to
	// the next power of two (conservative: more committees need bigger m).
	lg := bits.Len(uint(c - 1))
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
func (sc *scorer) score(vs []plan.Vignette) (costmodel.Vector, breakdown, int) {
	committees := int64(0)
	for i := range vs {
		committees += vs[i].Committees()
	}
	m := committeeSize(int(committees))

	var v costmodel.Vector
	var bd breakdown
	n := float64(sc.n)

	for i := range vs {
		vig := &vs[i]
		cpu, bytes := vig.MemberCost(sc.model, m)
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
			members := float64(vig.Count) * float64(m)
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

	// Maximum participant cost: every device pays the base; the unlucky one
	// additionally serves on the most expensive committee (or sum-tree
	// vertex, whichever is worse).
	worstCPU, worstBytes := bd.deviceExtraCPU, bd.deviceExtraBytes
	for _, rc := range &bd.byRole {
		if rc.CPU > worstCPU {
			worstCPU = rc.CPU
		}
		if rc.Bytes > worstBytes {
			worstBytes = rc.Bytes
		}
	}
	v.PartMaxCPU = bd.baseCPU + worstCPU
	v.PartMaxBytes = bd.baseBytes + worstBytes

	return v, bd, m
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
