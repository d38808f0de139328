package planner

import (
	"strconv"

	"arboretum/internal/costmodel"
	"arboretum/internal/mechanism"
	"arboretum/internal/plan"
)

// option is one way to realize a step: a choice label plus the vignettes it
// contributes to the plan. The label — recorded in the plan's Choices under
// the step kind's name — is for display and pinning (explain, ForceChoices);
// what the runtime can act on travels in the typed fields, set beside the
// label that names it and copied to the plan by assemble.
type option struct {
	choiceVal string
	vignettes []plan.Vignette

	sumFanout int                 // sum options: device-tree fanout (0 = aggregator loop)
	em        mechanism.EMVariant // em-family options: the Figure 4 instantiation
	// exec says the runtime has a code path for this option. It has none for
	// an FHE vignette (it runs AHE and committee MPC only) and its top-k is
	// Gumbel peeling only; those options are priced, never run.
	exec bool
}

// searchSpace fixes the enumerable parameters of the design space. The
// defaults give each operator several implementations and several
// parallelization widths — the "millions of different ways" of Section 1
// once the per-step choices multiply out.
type searchSpace struct {
	n        int64
	model    *costmodel.Model
	fanouts  []int64 // sum/argmax tree fanouts
	slices   []int64 // values handled per committee, ascending
	execOnly bool    // keep only options the runtime can run (Request.ExecutableOnly)
}

// slicesFor returns the slice widths worth offering for a c-vector: those
// up to c, and always the narrowest.
func (sp searchSpace) slicesFor(c int64) []int64 {
	k := 1
	for k < len(sp.slices) && sp.slices[k] <= c {
		k++
	}
	return sp.slices[:k]
}

func defaultSpace(n int64, m *costmodel.Model) searchSpace {
	return searchSpace{
		n:       n,
		model:   m,
		fanouts: []int64{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128},
		slices:  []int64{1, 4, 16, 64, 256, 1024, 4096},
	}
}

// ctsFor returns the ciphertexts needed for a c-wide value vector.
func (sp searchSpace) ctsFor(c int64) int64 {
	slots := int64(sp.model.Slots)
	cts := (c + slots - 1) / slots
	if cts < 1 {
		cts = 1
	}
	return cts
}

// distDiv distributes a total evenly over parts (0 stays 0).
func distDiv(total, parts int64) int64 {
	if total <= 0 || parts <= 0 {
		return 0
	}
	return (total + parts - 1) / parts
}

// itoa renders a count in an option's label or a vignette's Desc, as %d
// does.
func itoa(n int64) string { return strconv.FormatInt(n, 10) }

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	d := (a + b - 1) / b
	if d < 1 {
		d = 1
	}
	return d
}

// optionsFor enumerates the candidate implementations of one step
// (Section 4.3's program transformations), keeping only options whose
// committee vignettes are "bite-size" (Section 3.4: query plans break into
// small pieces that are each within the means of a small device — no single
// committee assignment may outweigh serving on the key-generation
// committee, the heaviest mandatory role).
func (sp searchSpace) optionsFor(st step) []option {
	opts := sp.rawOptionsFor(st)
	if sp.execOnly {
		// Every step kind has an executable family, so this never empties.
		runnable := opts[:0]
		for _, o := range opts {
			if o.exec {
				runnable = append(runnable, o)
			}
		}
		opts = runnable
	}
	filtered := opts[:0]
	for _, o := range opts {
		if sp.biteSize(o) {
			filtered = append(filtered, o)
		}
	}
	if len(filtered) == 0 {
		return opts // never drop a step entirely; limits still apply
	}
	return filtered
}

// biteSize checks every committee vignette of the option against the
// key-generation committee's member load.
func (sp searchSpace) biteSize(o option) bool {
	kg := keygenVignette()
	kgCPU, kgBytes := kg.MemberCost(sp.model, 40)
	for i := range o.vignettes {
		v := &o.vignettes[i]
		if v.Loc != plan.Committee {
			continue
		}
		cpu, bytes := v.MemberCost(sp.model, 40)
		if cpu > kgCPU || bytes > kgBytes {
			return false
		}
	}
	return true
}

func (sp searchSpace) rawOptionsFor(st step) []option {
	switch st.kind {
	case stepInput:
		return sp.inputOptions(st)
	case stepSample:
		return sp.sampleOptions()
	case stepSum:
		return sp.sumOptions(st)
	case stepCompute:
		return sp.computeOptions(st)
	case stepNoise:
		return sp.noiseOptions(st)
	case stepEM:
		return sp.emOptions(st, 1)
	case stepTopK:
		return sp.topKOptions(st)
	case stepMaxSel:
		return sp.maxSelOptions(st)
	case stepOutput:
		return sp.outputOptions()
	default:
		return nil
	}
}

// inputOptions: every device encrypts its one-hot row and proves it well
// formed; the aggregator verifies every proof and serves audit challenges
// (Sections 5.3). This step has a single implementation — it is the
// mandatory part of every plan (and the reason the red line in Figure 10
// stops when the aggregator's budget cannot even cover ZKP checking).
func (sp searchSpace) inputOptions(st step) []option {
	cts := sp.ctsFor(st.c)
	return []option{{
		choiceVal: "onehot+zkp",
		exec:      true,
		vignettes: []plan.Vignette{
			{
				Desc: "encrypt input + prove well-formedness", Loc: plan.Device,
				Parallel: true, Count: sp.n, Crypto: plan.CryptoAHE,
				Work: plan.Work{HEEncs: cts, ZKPGens: cts, CtsOut: cts, SigVerifies: 1},
			},
			{
				Desc: "verify input proofs, build audit tree", Loc: plan.Aggregator,
				Count: 1, Crypto: plan.CryptoAHE,
				Work: plan.Work{
					ZKPVerifies: sp.n * cts,
					MerkleOps:   2 * sp.n * cts,
					Audits:      sp.n, // one challenge-response per device
				},
			},
		},
	}}
}

func (sp searchSpace) sampleOptions() []option {
	return []option{{
		choiceVal: "bin-window",
		exec:      true,
		vignettes: []plan.Vignette{{
			Desc: "sample bin window (secrecy of the sample)", Loc: plan.Committee,
			Role: plan.RoleOps, Count: 1, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCNoises: 1, Shares: 2},
		}},
	}}
}

// sumOptions: the sum operator (Section 4.3's first example). Either the
// aggregator folds all ciphertexts with a simple loop, or the devices form a
// sum tree of some fanout, trading aggregator work for (small) extra device
// work — the outsourcing lever behind Figure 10.
func (sp searchSpace) sumOptions(st step) []option {
	cts := sp.ctsFor(st.c)
	opts := make([]option, 1, 1+len(sp.fanouts))
	opts[0] = option{
		choiceVal: "aggregator-loop",
		exec:      true,
		vignettes: []plan.Vignette{{
			Desc: "AHE sum loop over all inputs", Loc: plan.Aggregator,
			Count: 1, Crypto: plan.CryptoAHE,
			Work: plan.Work{HEAdds: sp.n * cts},
		}},
	}
	for _, phi := range sp.fanouts {
		if phi < 2 {
			continue
		}
		instances := sp.n / (phi - 1)
		if instances < 1 {
			instances = 1
		}
		opts = append(opts, option{
			choiceVal: "device-tree-fanout-" + itoa(phi),
			sumFanout: int(phi),
			exec:      true,
			vignettes: []plan.Vignette{
				{
					Desc: "device sum tree (fanout " + itoa(phi) + ")", Loc: plan.Device,
					Parallel: true, Count: instances, Crypto: plan.CryptoAHE,
					Work: plan.Work{HEAdds: phi * cts, CtsOut: cts},
				},
				{
					Desc: "combine sum-tree roots", Loc: plan.Aggregator,
					Count: 1, Crypto: plan.CryptoAHE,
					Work: plan.Work{HEAdds: phi * cts},
				},
			},
		})
	}
	return opts
}

// computeOptions: per-element computation over a c-vector, either
// homomorphically at the aggregator (comparisons force FHE and are very
// expensive — the asymmetry of Section 3.3) or split across committees.
func (sp searchSpace) computeOptions(st step) []option {
	// st.ops holds TOTAL operation counts for the whole step (loop
	// iterations already folded in by the decomposer).
	widths := sp.slicesFor(st.c)
	opts := make([]option, 0, 1+len(widths))
	// Additions and plaintext multiplications stay in AHE; comparisons and
	// exponentials force FHE (Section 4.5's rule).
	crypto := plan.CryptoAHE
	if st.ops.cmps+st.ops.exps > 0 {
		crypto = plan.CryptoFHE
	}
	opts = append(opts, option{
		choiceVal: "aggregator-he",
		exec:      crypto != plan.CryptoFHE,
		vignettes: []plan.Vignette{{
			Desc: "homomorphic compute over " + itoa(st.c) + " values", Loc: plan.Aggregator,
			Count: 1, Crypto: crypto,
			Work: plan.Work{
				HEAdds:      st.ops.adds,
				HEMulPlains: st.ops.mults + st.ops.divs,
				HECmps:      st.ops.cmps,
				HEExps:      st.ops.exps,
			},
		}},
	})
	for _, sigma := range widths {
		count := ceilDiv(st.c, sigma)
		opts = append(opts, option{
			choiceVal: "committee-slice-" + itoa(sigma),
			exec:      true,
			vignettes: []plan.Vignette{{
				Desc: "MPC compute (" + itoa(sigma) + " values per committee)", Loc: plan.Committee,
				Role: plan.RoleOps, Parallel: count > 1, Count: count, Crypto: plan.CryptoMPC,
				Work: plan.Work{
					MPCMults: distDiv(st.ops.mults+st.ops.divs, count),
					MPCCmps:  distDiv(st.ops.cmps, count),
					MPCExps:  distDiv(st.ops.exps, count),
					Shares:   sigma,
				},
			}},
		})
	}
	return opts
}

// noiseOptions: Laplace noising plus decryption by committees (the Orchard
// pattern): committees jointly decrypt the aggregated ciphertext slice and
// release the noised values.
func (sp searchSpace) noiseOptions(st step) []option {
	widths := sp.slicesFor(st.c)
	opts := make([]option, 0, len(widths))
	for _, sigma := range widths {
		count := ceilDiv(st.c, sigma)
		opts = append(opts, option{
			choiceVal: "committee-slice-" + itoa(sigma),
			exec:      true,
			vignettes: []plan.Vignette{{
				Desc: "laplace noise + decrypt (" + itoa(sigma) + " values per committee)",
				Loc:  plan.Committee, Role: plan.RoleDecrypt,
				Parallel: count > 1, Count: count, Crypto: plan.CryptoMPC,
				Work: plan.Work{
					MPCNoises:   sigma,
					HEDecShares: sp.ctsFor(sigma),
					Shares:      sigma,
				},
			}},
		})
	}
	return opts
}

// emOptions: the two instantiations of the exponential mechanism (Figure 4).
// rounds > 1 reuses the machinery for top-k peeling.
func (sp searchSpace) emOptions(st step, rounds int64) []option {
	widths := sp.slicesFor(st.c)
	opts := make([]option, 0, len(widths)*(len(sp.fanouts)+2))
	cts := sp.ctsFor(st.c)

	// Variant 1 (Figure 4 right): decrypt sums to shares, add Gumbel noise,
	// tournament argmax across committees.
	for _, sigmaN := range widths {
		for _, psi := range sp.fanouts {
			decCount := ceilDiv(st.c, 1024) // decryption slices are coarse
			noiseCount := ceilDiv(st.c, sigmaN)
			treeCount := ceilDiv(st.c, psi-1)
			opts = append(opts, option{
				choiceVal: "gumbel-noise-" + itoa(sigmaN) + "-tree-" + itoa(psi),
				em:        mechanism.EMGumbel,
				exec:      true,
				vignettes: []plan.Vignette{
					{
						Desc: "decrypt aggregate to secret shares", Loc: plan.Committee,
						Role: plan.RoleDecrypt, Parallel: decCount > 1, Count: decCount * rounds,
						Crypto: plan.CryptoMPC,
						Work:   plan.Work{HEDecShares: 1, Shares: 1024},
					},
					{
						Desc: "gumbel noise (" + itoa(sigmaN) + " scores per committee)",
						Loc:  plan.Committee, Role: plan.RoleOps,
						Parallel: noiseCount > 1, Count: noiseCount * rounds, Crypto: plan.CryptoMPC,
						Work: plan.Work{MPCNoises: sigmaN, Shares: sigmaN},
					},
					{
						Desc: "argmax tournament (fanout " + itoa(psi) + ")",
						Loc:  plan.Committee, Role: plan.RoleOps,
						Parallel: treeCount > 1, Count: treeCount * rounds, Crypto: plan.CryptoMPC,
						Work: plan.Work{MPCCmps: psi - 1, MPCMults: 2 * (psi - 1), Shares: psi},
					},
					{
						Desc: "re-randomize inputs for selection round", Loc: plan.Device,
						Parallel: true, Count: sp.n, Crypto: plan.CryptoAHE,
						Work: plan.Work{HEEncs: cts * rounds, ZKPGens: cts * rounds, CtsOut: cts * rounds},
					},
				},
			})
		}
	}

	// Variant 2 (Figure 4 left): exponentiate scores, then CDF selection.
	// The exponentials run either as an FHE circuit at the aggregator or in
	// committee MPCs; the CDF scan's comparisons always run on committees.
	for _, sigma := range widths {
		scanCount := ceilDiv(st.c, sigma)
		expCommittee := plan.Vignette{
			Desc: "fixed-point exp in MPC (" + itoa(sigma) + " scores per committee)",
			Loc:  plan.Committee, Role: plan.RoleOps,
			Parallel: scanCount > 1, Count: scanCount * rounds, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCExps: sigma, Shares: sigma},
		}
		expAggregator := plan.Vignette{
			Desc: "FHE exponentiation of all scores", Loc: plan.Aggregator,
			Count: rounds, Crypto: plan.CryptoFHE,
			Work: plan.Work{HEExps: st.c, HEMulPlains: st.c},
		}
		decVig := plan.Vignette{
			Desc: "decrypt aggregate to secret shares", Loc: plan.Committee,
			Role: plan.RoleDecrypt, Parallel: true, Count: ceilDiv(st.c, 1024) * rounds,
			Crypto: plan.CryptoMPC,
			Work:   plan.Work{HEDecShares: 1, Shares: 1024},
		}
		scanVig := plan.Vignette{
			Desc: "CDF scan (" + itoa(sigma) + " scores per committee)",
			Loc:  plan.Committee, Role: plan.RoleOps,
			Parallel: scanCount > 1, Count: scanCount * rounds, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCCmps: sigma, MPCMults: sigma, Shares: sigma},
		}
		rerand := plan.Vignette{
			Desc: "re-randomize inputs for selection round", Loc: plan.Device,
			Parallel: true, Count: sp.n, Crypto: plan.CryptoAHE,
			Work: plan.Work{HEEncs: cts * rounds, ZKPGens: cts * rounds, CtsOut: cts * rounds},
		}
		opts = append(opts, option{
			choiceVal: "exponentiate-mpc-slice-" + itoa(sigma),
			em:        mechanism.EMExponentiate,
			exec:      true,
			vignettes: []plan.Vignette{decVig, expCommittee, scanVig, rerand},
		})
		opts = append(opts, option{
			choiceVal: "exponentiate-fhe-scan-" + itoa(sigma),
			em:        mechanism.EMExponentiate,
			exec:      false, // expAggregator is an FHE circuit
			vignettes: []plan.Vignette{expAggregator, decVig, scanVig, rerand},
		})
	}
	return opts
}

// topKOptions: top-k either peels (k full exponential-mechanism rounds) or
// noises once and runs k tournament passes (Section 2.1's two compositions).
func (sp searchSpace) topKOptions(st step) []option {
	k := st.k
	if k < 1 {
		k = 1
	}
	// Peeling: k full rounds.
	opts := sp.emOptions(st, k)
	for i := range opts {
		o := &opts[i]
		o.choiceVal = "peel-" + o.choiceVal
		o.exec = o.exec && o.em == mechanism.EMGumbel // the runtime peels with Gumbel-argmax rounds only
	}
	// One-shot: noise once, then k tournament passes — cheaper in MPC, and
	// by Durfee and Rogers distributed as k peeled rounds, so charged the
	// same k·ε. Priced only.
	for _, psi := range sp.fanouts {
		treeCount := ceilDiv(st.c, psi-1)
		noiseCount := ceilDiv(st.c, 1024)
		opts = append(opts, option{
			choiceVal: "oneshot-tree-" + itoa(psi),
			exec:      false, // the runtime's top-k peels
			vignettes: []plan.Vignette{
				{
					Desc: "decrypt aggregate to secret shares", Loc: plan.Committee,
					Role: plan.RoleDecrypt, Parallel: true, Count: ceilDiv(st.c, 1024),
					Crypto: plan.CryptoMPC,
					Work:   plan.Work{HEDecShares: 1, Shares: 1024},
				},
				{
					Desc: "gumbel noise (one-shot)", Loc: plan.Committee, Role: plan.RoleOps,
					Parallel: noiseCount > 1, Count: noiseCount, Crypto: plan.CryptoMPC,
					Work: plan.Work{MPCNoises: 1024, Shares: 1024},
				},
				{
					Desc: "k tournament passes (fanout " + itoa(psi) + ")",
					Loc:  plan.Committee, Role: plan.RoleOps,
					Parallel: treeCount > 1, Count: treeCount * k, Crypto: plan.CryptoMPC,
					Work: plan.Work{MPCCmps: psi - 1, MPCMults: 2 * (psi - 1), Shares: psi},
				},
				{
					Desc: "re-randomize inputs per released winner", Loc: plan.Device,
					Parallel: true, Count: sp.n, Crypto: plan.CryptoAHE,
					Work: plan.Work{
						HEEncs: sp.ctsFor(st.c) * k, ZKPGens: sp.ctsFor(st.c) * k,
						CtsOut: sp.ctsFor(st.c) * k,
					},
				},
			},
		})
	}
	return opts
}

// maxSelOptions: max/argmax over encrypted values — a tournament without
// noise.
func (sp searchSpace) maxSelOptions(st step) []option {
	opts := make([]option, 0, len(sp.fanouts))
	for _, psi := range sp.fanouts {
		treeCount := ceilDiv(st.c, psi-1)
		opts = append(opts, option{
			choiceVal: "tree-" + itoa(psi),
			exec:      true,
			vignettes: []plan.Vignette{
				{
					Desc: "decrypt to secret shares", Loc: plan.Committee,
					Role: plan.RoleDecrypt, Parallel: true, Count: ceilDiv(st.c, 1024),
					Crypto: plan.CryptoMPC,
					Work:   plan.Work{HEDecShares: 1, Shares: 1024},
				},
				{
					Desc: "max tournament (fanout " + itoa(psi) + ")",
					Loc:  plan.Committee, Role: plan.RoleOps,
					Parallel: treeCount > 1, Count: treeCount, Crypto: plan.CryptoMPC,
					Work: plan.Work{MPCCmps: psi - 1, MPCMults: 2 * (psi - 1), Shares: psi},
				},
			},
		})
	}
	return opts
}

func (sp searchSpace) outputOptions() []option {
	return []option{{
		choiceVal: "committee-reconstruct",
		exec:      true,
		vignettes: []plan.Vignette{
			{
				Desc: "reconstruct and release result", Loc: plan.Committee,
				Role: plan.RoleOps, Count: 1, Crypto: plan.CryptoMPC,
				Work: plan.Work{Shares: 2, MPCMults: 1},
			},
			{
				Desc: "publish result", Loc: plan.Aggregator, Count: 1,
				Crypto: plan.CryptoNone,
				Work:   plan.Work{SigVerifies: 1},
			},
		},
	}}
}

// keygenVignette is the mandatory first vignette of every plan that uses a
// cryptosystem (Section 4.5: "Whenever a cryptosystem is used for the first
// time, Arboretum inserts a key generation vignette at the beginning of the
// program and assigns it to a committee").
func keygenVignette() plan.Vignette {
	return plan.Vignette{
		Desc: "distributed key generation + budget check", Loc: plan.Committee,
		Role: plan.RoleKeyGen, Count: 1, Crypto: plan.CryptoMPC,
		Work: plan.Work{KeyGens: 1, Shares: 2},
	}
}
