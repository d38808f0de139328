// Package plan defines Arboretum's executable plan representation
// (Sections 4.4–4.5): a query becomes a sequence of vignettes, each assigned
// to the aggregator, to committees of participant devices, or to the
// participant devices themselves, with the cryptography (AHE or FHE) chosen
// per value. Data-parallel vignettes carry an instance count — e.g. one
// instance per committee computing one vertex of a sum tree, or one instance
// per device encrypting its own input (Figure 5).
package plan

import (
	"fmt"
	"strings"

	"arboretum/internal/costmodel"
	"arboretum/internal/mechanism"
)

// Location says which entity executes a vignette.
type Location int

// The three execution locations of Section 4.4.
const (
	Aggregator Location = iota
	Committee
	Device
)

func (l Location) String() string {
	switch l {
	case Aggregator:
		return "aggregator"
	case Committee:
		return "committee"
	case Device:
		return "device"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// Role classifies committees for the per-committee-type cost reporting of
// Figure 7 (KeyGen, Decryption, Operations).
type Role int

// Committee roles.
const (
	RoleNone Role = iota
	RoleKeyGen
	RoleDecrypt
	RoleOps
	NumRoles // sentinel: sizes tables indexed by Role
)

func (r Role) String() string {
	switch r {
	case RoleNone:
		return "none"
	case RoleKeyGen:
		return "keygen"
	case RoleDecrypt:
		return "decryption"
	case RoleOps:
		return "operations"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Crypto is the cryptosystem protecting a vignette's confidential values
// (Section 4.5: add-only values get AHE, everything else FHE; committees
// compute on secret shares inside MPC).
type Crypto int

// Cryptosystems.
const (
	CryptoNone Crypto = iota
	CryptoAHE
	CryptoFHE
	CryptoMPC
)

func (c Crypto) String() string {
	switch c {
	case CryptoNone:
		return "clear"
	case CryptoAHE:
		return "ahe"
	case CryptoFHE:
		return "fhe"
	case CryptoMPC:
		return "mpc"
	default:
		return fmt.Sprintf("Crypto(%d)", int(c))
	}
}

// Work counts the primitive operations one instance of a vignette performs;
// the cost model prices each counter.
type Work struct {
	HEEncs      int64 // ciphertexts encrypted
	HEAdds      int64 // homomorphic additions
	HEMulPlains int64
	HEMulCts    int64
	HECmps      int64 // encrypted comparisons (FHE)
	HEExps      int64 // encrypted exponentials (FHE)
	HEDecShares int64 // distributed-decryption shares contributed

	MPCMults  int64 // multiplication gates inside an MPC
	MPCCmps   int64 // comparisons inside an MPC
	MPCExps   int64 // fixed-point exponentials inside an MPC
	MPCNoises int64 // jointly sampled noise values
	KeyGens   int64 // distributed key generations (composite)

	ZKPGens     int64
	ZKPVerifies int64
	SigVerifies int64
	MerkleOps   int64 // hashes for audit trees

	CtsIn  int64 // ciphertexts received per instance
	CtsOut int64 // ciphertexts sent per instance
	Shares int64 // secret shares sent (VSR hand-offs, MPC I/O)
	Audits int64 // audit challenges answered
}

// Add accumulates another work tally.
func (w *Work) Add(o Work) {
	w.HEEncs += o.HEEncs
	w.HEAdds += o.HEAdds
	w.HEMulPlains += o.HEMulPlains
	w.HEMulCts += o.HEMulCts
	w.HECmps += o.HECmps
	w.HEExps += o.HEExps
	w.HEDecShares += o.HEDecShares
	w.MPCMults += o.MPCMults
	w.MPCCmps += o.MPCCmps
	w.MPCExps += o.MPCExps
	w.MPCNoises += o.MPCNoises
	w.KeyGens += o.KeyGens
	w.ZKPGens += o.ZKPGens
	w.ZKPVerifies += o.ZKPVerifies
	w.SigVerifies += o.SigVerifies
	w.MerkleOps += o.MerkleOps
	w.CtsIn += o.CtsIn
	w.CtsOut += o.CtsOut
	w.Shares += o.Shares
	w.Audits += o.Audits
}

// Vignette is one plan fragment assigned to one location (Section 4.4).
type Vignette struct {
	ID       int
	Desc     string // human-readable description, e.g. "sum tree level 2 (fanout 8)"
	Loc      Location
	Role     Role  // committee role when Loc == Committee
	Parallel bool  // data-parallel across Count instances
	Count    int64 // parallel instances (1 when not parallel)
	Crypto   Crypto
	Work     Work // per instance (per committee member for MPC vignettes)
}

// Committees returns how many committees the vignette consumes.
func (v *Vignette) Committees() int64 {
	if v.Loc != Committee {
		return 0
	}
	return v.Count
}

// MemberCost prices one instance of the vignette for a single executor
// (committee member, device, or the aggregator) on the reference platform.
func (v *Vignette) MemberCost(m *costmodel.Model, committeeSize int) (cpu, bytes float64) {
	w := v.Work
	cpu += float64(w.HEEncs) * m.HEEnc
	cpu += float64(w.HEAdds) * m.HEAdd
	cpu += float64(w.HEMulPlains) * m.HEMulPlain
	cpu += float64(w.HEMulCts) * m.HEMulCt
	cpu += float64(w.HECmps) * m.HECmp
	cpu += float64(w.HEExps) * m.HEExp
	cpu += float64(w.HEDecShares) * m.HEDecShare
	cpu += float64(w.ZKPGens) * m.ZKPGen
	cpu += float64(w.ZKPVerifies) * m.ZKPVerify
	cpu += float64(w.SigVerifies) * m.SigVerify
	cpu += float64(w.MerkleOps) * m.MerkleHash

	bytes += float64(w.CtsOut) * m.CtBytes
	bytes += float64(w.ZKPGens) * m.ZKPBytes
	bytes += float64(w.Shares) * m.ShareBytes
	bytes += float64(w.Audits) * m.AuditRespBytes

	if v.Crypto == CryptoMPC || w.MPCMults+w.MPCCmps+w.MPCExps+w.MPCNoises+w.KeyGens > 0 {
		cpu += m.MPCStartupCPU
		bytes += m.MPCStartupBytes
		// MPC traffic scales with the committee size: every gate is a round
		// of share exchanges among the m members.
		scale := float64(committeeSize) / 40.0 // constants calibrated at m=40
		cpu += float64(w.MPCMults) * m.MPCPerMultCPU
		bytes += float64(w.MPCMults) * m.MPCPerMultBytes * scale
		cpu += float64(w.MPCCmps) * m.MPCPerCmpCPU
		bytes += float64(w.MPCCmps) * m.MPCPerCmpBytes * scale
		if w.MPCCmps > 0 {
			cpu += m.MPCFirstCmpPen // triple-generation warm-up (Section 6)
		}
		cpu += float64(w.MPCExps) * m.MPCPerExpCPU
		bytes += float64(w.MPCExps) * m.MPCPerExpBytes * scale
		cpu += float64(w.MPCNoises) * m.MPCNoiseCPU
		bytes += float64(w.MPCNoises) * m.MPCNoiseBytes * scale
		cpu += float64(w.KeyGens) * m.KeyGenCPU
		bytes += float64(w.KeyGens) * m.KeyGenBytes * scale
		cpu += float64(w.HEDecShares) * m.DecPerCtCPU
		bytes += float64(w.HEDecShares) * m.DecPerCtBytes * scale
	}
	return cpu, bytes
}

// RoleCost summarizes what one member of one committee type pays (Figure 7).
type RoleCost struct {
	CPU   float64
	Bytes float64
	Count int64 // committees of this role
}

// Plan is a complete, scored execution plan.
type Plan struct {
	Query      string
	N          int64 // participants
	Categories int64

	Vignettes []*Vignette

	CommitteeCount int
	CommitteeSize  int

	// Choices records the search decisions (operator variants, fanouts) for
	// explainability and pinning — labels, not an interface: what the
	// runtime acts on is in the typed fields below.
	Choices map[string]string

	// What the runtime reads (runtime.Deployment.RunPlan) — the typed
	// choices and nothing else: a plan is structure, so N, CommitteeSize and
	// CommitteeCount above price the deployment the plan was made for and
	// never size the one it runs on. EMVariant is the instantiation the em
	// step chose (meaningful only when the query has one); SumFanout is the
	// device sum tree's fanout, 0 when the aggregator sums in a loop.
	// Executable is false when some chosen option has no code path in the
	// runtime (an FHE vignette, a non-Gumbel top-k): the plan is priced
	// only, and RunPlan refuses it.
	EMVariant  mechanism.EMVariant
	SumFanout  int
	Executable bool

	Cost costmodel.Vector

	// Figure-oriented breakdowns.
	ByRole map[Role]RoleCost // per-member cost by committee type
	// Participant base cost (encryption + proofs + audits, paid by all).
	BaseCPU, BaseBytes float64
	// Aggregator split: operation time vs verification time (Figure 8b) and
	// forwarding traffic (Figure 8a).
	AggOpsCPU, AggVerifyCPU, AggForwardBytes float64
}

// String renders the plan like Figure 5.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s (N=%d, C=%d, %d committees of %d)\n",
		p.Query, p.N, p.Categories, p.CommitteeCount, p.CommitteeSize)
	for _, v := range p.Vignettes {
		par := ""
		if v.Parallel {
			par = fmt.Sprintf(" x%d", v.Count)
		}
		loc := v.Loc.String()
		if v.Loc == Committee {
			loc = fmt.Sprintf("%s/%s", v.Loc, v.Role)
		}
		fmt.Fprintf(&sb, "  vignette %d (%s%s, %s): %s\n", v.ID, loc, par, v.Crypto, v.Desc)
	}
	fmt.Fprintf(&sb, "  cost: agg %.0f core-s / %.1f TB; part exp %.1f s / %.2f MB; part max %.1f s / %.2f GB\n",
		p.Cost.AggCPU, p.Cost.AggBytes/1e12,
		p.Cost.PartExpCPU, p.Cost.PartExpBytes/1e6,
		p.Cost.PartMaxCPU, p.Cost.PartMaxBytes/1e9)
	return sb.String()
}

// DetailString renders the plan with per-vignette member costs priced by the
// given model — the explainability view behind `arboretum plan -v`.
func (p *Plan) DetailString(m *costmodel.Model) string {
	var sb strings.Builder
	sb.WriteString(p.String())
	sb.WriteString("  per-vignette member cost (cpu seconds / bytes):\n")
	for _, v := range p.Vignettes {
		cpu, bytes := v.MemberCost(m, p.CommitteeSize)
		fmt.Fprintf(&sb, "    vignette %d: %10.3f s %14.0f B  (%s)\n", v.ID, cpu, bytes, v.Desc)
	}
	return sb.String()
}
