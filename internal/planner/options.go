package planner

import (
	"strconv"

	"arboretum/internal/costmodel"
	"arboretum/internal/mechanism"
	"arboretum/internal/plan"
)

// option is one way to realize a step: a choice label plus the vignettes it
// contributes to the plan, as indices into the search's pool. The label —
// recorded in the plan's Choices under the step kind's name — is for display
// and pinning (explain, ForceChoices); what the runtime can act on travels in
// the typed fields, set beside the label that names it and copied to the plan
// by assemble.
type option struct {
	choiceVal string
	vigs      []int32 // indices into pool.vs, carved from pool.ix

	sumFanout int                 // sum options: device-tree fanout (0 = aggregator loop)
	em        mechanism.EMVariant // em-family options: the Figure 4 instantiation
	// exec says the runtime has a code path for this option. It has none for
	// an FHE vignette (it runs AHE and committee MPC only) and its top-k is
	// Gumbel peeling only; those options are priced, never run.
	exec bool
	goal float64 // search's ordering key: the option's cost alone, on the goal
}

// pool holds one search's vignettes. Each enumerator appends every distinct
// vignette of its step once — an em step at C ≥ 4096 has 38, where its 105
// options name 420 — and carves each option's index list from ix, so no
// option allocates. vs[0] is the keygen vignette. What prices a vignette
// (biteSize, the frame stack's member costs) keys on its index.
type pool struct {
	vs    []plan.Vignette
	heavy []bool // heavy[v]: vs[v] is a committee vignette biteSize refuses
	ix    []int32
}

// newPool returns a pool with room for the vignettes of steps' options.
func newPool(steps ...step) *pool {
	n := 1
	for _, st := range steps {
		n += vignettesFor(st)
	}
	p := &pool{vs: make([]plan.Vignette, 0, n), heavy: make([]bool, 0, n)}
	p.add(keygenVignette())
	return p
}

// add appends v to the pool and returns its index.
func (p *pool) add(v plan.Vignette) int32 {
	p.vs = append(p.vs, v)
	return int32(len(p.vs) - 1)
}

// carve appends the index lists to ix, in order, and returns them as one
// option's list.
func (p *pool) carve(lists ...[]int32) []int32 {
	lo := len(p.ix)
	for _, l := range lists {
		p.ix = append(p.ix, l...)
	}
	return p.ix[lo:len(p.ix):len(p.ix)]
}

// searchSpace fixes the enumerable parameters of the design space: each
// operator has several implementations and, over the grid below, several
// parallelization widths — the "millions of different ways" of Section 1
// once the per-step choices multiply out.
type searchSpace struct {
	n        int64
	model    *costmodel.Model
	execOnly bool // keep only options the runtime can run (Request.ExecutableOnly)
}

// The grid: sum and argmax tree fanouts, and the values handled per
// committee, ascending.
var (
	fanouts     = [...]int64{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128}
	sliceWidths = [...]int64{1, 4, 16, 64, 256, 1024, 4096}
)

// names holds every label and Desc that names a grid value, rendered once
// per process so that enumerating a step concatenates no string: bySlice[i]
// for sliceWidths[i], byFanout[j] for fanouts[j], gumbel[i][j] for the pair,
// and peeled maps an em label to its top-k peeling label.
var names = func() (t struct {
	bySlice  [len(sliceWidths)]struct{ slice, compute, laplace, gumbel, exp, scan, expMPC, expFHE string }
	byFanout [len(fanouts)]struct{ sum, sumTree, argmax, oneshot, passes, tree, max string }
	gumbel   [len(sliceWidths)][len(fanouts)]string
	peeled   map[string]string
}) {
	t.peeled = map[string]string{}
	for j, psi := range fanouts {
		f, n := itoa(psi), &t.byFanout[j]
		n.sum, n.sumTree, n.tree = "device-tree-fanout-"+f, "device sum tree (fanout "+f+")", "tree-"+f
		n.argmax, n.max = "argmax tournament (fanout "+f+")", "max tournament (fanout "+f+")"
		n.oneshot, n.passes = "oneshot-tree-"+f, "k tournament passes (fanout "+f+")"
	}
	for i, sigma := range sliceWidths {
		s, n := itoa(sigma), &t.bySlice[i]
		n.slice, n.compute = "committee-slice-"+s, "MPC compute ("+s+" values per committee)"
		n.laplace = "laplace noise + decrypt (" + s + " values per committee)"
		n.gumbel, n.exp = "gumbel noise ("+s+" scores per committee)", "fixed-point exp in MPC ("+s+" scores per committee)"
		n.scan = "CDF scan (" + s + " scores per committee)"
		n.expMPC, n.expFHE = "exponentiate-mpc-slice-"+s, "exponentiate-fhe-scan-"+s
		t.peeled[n.expMPC], t.peeled[n.expFHE] = "peel-"+n.expMPC, "peel-"+n.expFHE
		for j, psi := range fanouts {
			t.gumbel[i][j] = "gumbel-noise-" + s + "-tree-" + itoa(psi)
			t.peeled[t.gumbel[i][j]] = "peel-" + t.gumbel[i][j]
		}
	}
	return t
}()

// slicesFor returns the slice widths worth offering for a c-vector: those
// up to c, and always the narrowest.
func slicesFor(c int64) []int64 {
	k := 1
	for k < len(sliceWidths) && sliceWidths[k] <= c {
		k++
	}
	return sliceWidths[:k]
}

func defaultSpace(n int64, m *costmodel.Model) searchSpace { return searchSpace{n: n, model: m} }

// ctsFor returns the ciphertexts needed for a c-wide value vector.
func (sp searchSpace) ctsFor(c int64) int64 { return ceilDiv(c, int64(sp.model.Slots)) }

// distDiv distributes a total evenly over parts (0 stays 0).
func distDiv(total, parts int64) int64 {
	if total <= 0 || parts <= 0 {
		return 0
	}
	return (total-1)/parts + 1
}

// itoa renders a count in an option's label or a vignette's Desc, as %d
// does.
func itoa(n int64) string { return strconv.FormatInt(n, 10) }

// ceilDiv is ⌈a/b⌉, at least 1 (a for b ≤ 0). Like distDiv it cannot wrap:
// a width may be math.MaxInt64 (satMul saturates to it).
func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	if a < 1 {
		return 1
	}
	return (a-1)/b + 1
}

// optionsFor enumerates the candidate implementations of one step
// (Section 4.3's program transformations) into p, keeping only options whose
// committee vignettes are "bite-size" (Section 3.4: query plans break into
// small pieces that are each within the means of a small device — no single
// committee assignment may outweigh serving on the key-generation
// committee, the heaviest mandatory role).
func (sp searchSpace) optionsFor(st step, p *pool) []option {
	opts := sp.rawOptionsFor(st, p)
	kgCPU, kgBytes := p.vs[0].MemberCost(sp.model, 40)
	for v := len(p.heavy); v < len(p.vs); v++ {
		cpu, bytes := p.vs[v].MemberCost(sp.model, 40)
		p.heavy = append(p.heavy, p.vs[v].Loc == plan.Committee && (cpu > kgCPU || bytes > kgBytes))
	}
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
		if p.biteSize(o) {
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
func (p *pool) biteSize(o option) bool {
	for _, v := range o.vigs {
		if p.heavy[v] {
			return false
		}
	}
	return true
}

// vignettesFor is how many vignettes rawOptionsFor adds to the pool for st
// (TestAllocGateOptions holds it to that).
func vignettesFor(st step) int {
	w, f := len(slicesFor(st.c)), len(fanouts)
	return [...]int{stepInput: 2, stepSample: 1, stepSum: 1 + 2*f, stepCompute: 1 + w, stepNoise: w,
		stepEM: 4 + f + 3*w, stepTopK: 7 + 2*f + 3*w, stepMaxSel: 1 + f, stepOutput: 2}[st.kind]
}

func (sp searchSpace) rawOptionsFor(st step, p *pool) []option {
	switch st.kind {
	case stepInput:
		return sp.inputOptions(st, p)
	case stepSample:
		return sampleOptions(p)
	case stepSum:
		return sp.sumOptions(st, p)
	case stepCompute:
		return computeOptions(st, p)
	case stepNoise:
		return sp.noiseOptions(st, p)
	case stepEM:
		return sp.emOptions(st, 1, p)
	case stepTopK:
		return sp.topKOptions(st, p)
	case stepMaxSel:
		return maxSelOptions(st, p)
	case stepOutput:
		return outputOptions(p)
	default:
		return nil
	}
}

// inputOptions: every device encrypts its one-hot row and proves it well
// formed; the aggregator verifies every proof and serves audit challenges
// (Sections 5.3). This step has a single implementation — it is the
// mandatory part of every plan (and the reason the red line in Figure 10
// stops when the aggregator's budget cannot even cover ZKP checking).
func (sp searchSpace) inputOptions(st step, p *pool) []option {
	cts := sp.ctsFor(st.c)
	return []option{{
		choiceVal: "onehot+zkp",
		exec:      true,
		vigs: p.carve([]int32{
			p.add(plan.Vignette{
				Desc: "encrypt input + prove well-formedness", Loc: plan.Device,
				Parallel: true, Count: sp.n, Crypto: plan.CryptoAHE,
				Work: plan.Work{HEEncs: cts, ZKPGens: cts, CtsOut: cts, SigVerifies: 1},
			}),
			p.add(plan.Vignette{
				Desc: "verify input proofs, build audit tree", Loc: plan.Aggregator,
				Count: 1, Crypto: plan.CryptoAHE,
				Work: plan.Work{
					ZKPVerifies: satMul(sp.n, cts),
					MerkleOps:   satMul(2, satMul(sp.n, cts)),
					Audits:      sp.n, // one challenge-response per device
				},
			}),
		}),
	}}
}

func sampleOptions(p *pool) []option {
	return []option{{
		choiceVal: "bin-window",
		exec:      true,
		vigs: p.carve([]int32{p.add(plan.Vignette{
			Desc: "sample bin window (secrecy of the sample)", Loc: plan.Committee,
			Role: plan.RoleOps, Count: 1, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCNoises: 1, Shares: 2},
		})}),
	}}
}

// sumOptions: the sum operator (Section 4.3's first example). Either the
// aggregator folds all ciphertexts with a simple loop, or the devices form a
// sum tree of some fanout, trading aggregator work for (small) extra device
// work — the outsourcing lever behind Figure 10.
func (sp searchSpace) sumOptions(st step, p *pool) []option {
	cts := sp.ctsFor(st.c)
	opts := make([]option, 1, 1+len(fanouts))
	opts[0] = option{
		choiceVal: "aggregator-loop",
		exec:      true,
		vigs: p.carve([]int32{p.add(plan.Vignette{
			Desc: "AHE sum loop over all inputs", Loc: plan.Aggregator,
			Count: 1, Crypto: plan.CryptoAHE,
			Work: plan.Work{HEAdds: satMul(sp.n, cts)},
		})}),
	}
	for j, phi := range fanouts {
		opts = append(opts, option{
			choiceVal: names.byFanout[j].sum,
			sumFanout: int(phi),
			exec:      true,
			vigs: p.carve([]int32{
				p.add(plan.Vignette{
					Desc: names.byFanout[j].sumTree, Loc: plan.Device,
					Parallel: true, Count: max(sp.n/(phi-1), 1), Crypto: plan.CryptoAHE,
					Work: plan.Work{HEAdds: phi * cts, CtsOut: cts},
				}),
				p.add(plan.Vignette{
					Desc: "combine sum-tree roots", Loc: plan.Aggregator,
					Count: 1, Crypto: plan.CryptoAHE,
					Work: plan.Work{HEAdds: phi * cts},
				}),
			}),
		})
	}
	return opts
}

// computeOptions: per-element computation over a c-vector, either
// homomorphically at the aggregator (comparisons force FHE and are very
// expensive — the asymmetry of Section 3.3) or split across committees.
func computeOptions(st step, p *pool) []option {
	// st.ops holds TOTAL operation counts for the whole step (loop
	// iterations already folded in by the decomposer).
	widths := slicesFor(st.c)
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
		vigs: p.carve([]int32{p.add(plan.Vignette{
			Desc: "homomorphic compute over " + itoa(st.c) + " values", Loc: plan.Aggregator,
			Count: 1, Crypto: crypto,
			Work: plan.Work{
				HEAdds:      st.ops.adds,
				HEMulPlains: st.ops.mults + st.ops.divs,
				HECmps:      st.ops.cmps,
				HEExps:      st.ops.exps,
			},
		})}),
	})
	for i, sigma := range widths {
		count := ceilDiv(st.c, sigma)
		opts = append(opts, option{
			choiceVal: names.bySlice[i].slice,
			exec:      true,
			vigs: p.carve([]int32{p.add(plan.Vignette{
				Desc: names.bySlice[i].compute, Loc: plan.Committee,
				Role: plan.RoleOps, Parallel: count > 1, Count: count, Crypto: plan.CryptoMPC,
				Work: plan.Work{
					MPCMults: distDiv(st.ops.mults+st.ops.divs, count),
					MPCCmps:  distDiv(st.ops.cmps, count),
					MPCExps:  distDiv(st.ops.exps, count),
					Shares:   sigma,
				},
			})}),
		})
	}
	return opts
}

// noiseOptions: Laplace noising plus decryption by committees (the Orchard
// pattern): committees jointly decrypt the aggregated ciphertext slice and
// release the noised values.
func (sp searchSpace) noiseOptions(st step, p *pool) []option {
	widths := slicesFor(st.c)
	opts := make([]option, 0, len(widths))
	for i, sigma := range widths {
		count := ceilDiv(st.c, sigma)
		opts = append(opts, option{
			choiceVal: names.bySlice[i].slice,
			exec:      true,
			vigs: p.carve([]int32{p.add(plan.Vignette{
				Desc: names.bySlice[i].laplace,
				Loc:  plan.Committee, Role: plan.RoleDecrypt,
				Parallel: count > 1, Count: count, Crypto: plan.CryptoMPC,
				Work: plan.Work{
					MPCNoises:   sigma,
					HEDecShares: sp.ctsFor(sigma),
					Shares:      sigma,
				},
			})}),
		})
	}
	return opts
}

// emOptions: the two instantiations of the exponential mechanism (Figure 4).
// rounds > 1 reuses the machinery for top-k peeling.
func (sp searchSpace) emOptions(st step, rounds int64, p *pool) []option {
	widths := slicesFor(st.c)
	// Room for topKOptions' one-shot options too.
	opts := make([]option, 0, len(widths)*(len(fanouts)+2)+len(fanouts))
	cts := sp.ctsFor(st.c)
	decCount := ceilDiv(st.c, 1024) // decryption slices are coarse
	rerand := p.add(plan.Vignette{
		Desc: "re-randomize inputs for selection round", Loc: plan.Device,
		Parallel: true, Count: sp.n, Crypto: plan.CryptoAHE,
		Work: plan.Work{HEEncs: cts * rounds, ZKPGens: cts * rounds, CtsOut: cts * rounds},
	})

	// Variant 1 (Figure 4 right): decrypt sums to shares, add Gumbel noise,
	// tournament argmax across committees.
	dec := p.add(plan.Vignette{
		Desc: "decrypt aggregate to secret shares", Loc: plan.Committee,
		Role: plan.RoleDecrypt, Parallel: decCount > 1, Count: decCount * rounds,
		Crypto: plan.CryptoMPC,
		Work:   plan.Work{HEDecShares: 1, Shares: 1024},
	})
	var trees [len(fanouts)]int32
	for j, psi := range fanouts {
		treeCount := ceilDiv(st.c, psi-1)
		trees[j] = p.add(plan.Vignette{
			Desc: names.byFanout[j].argmax,
			Loc:  plan.Committee, Role: plan.RoleOps,
			Parallel: treeCount > 1, Count: treeCount * rounds, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCCmps: psi - 1, MPCMults: 2 * (psi - 1), Shares: psi},
		})
	}
	for i, sigmaN := range widths {
		noiseCount := ceilDiv(st.c, sigmaN)
		noise := p.add(plan.Vignette{
			Desc: names.bySlice[i].gumbel,
			Loc:  plan.Committee, Role: plan.RoleOps,
			Parallel: noiseCount > 1, Count: noiseCount * rounds, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCNoises: sigmaN, Shares: sigmaN},
		})
		for j, tree := range trees {
			opts = append(opts, option{
				choiceVal: names.gumbel[i][j],
				em:        mechanism.EMGumbel,
				exec:      true,
				vigs:      p.carve([]int32{dec, noise, tree, rerand}),
			})
		}
	}

	// Variant 2 (Figure 4 left): exponentiate scores, then CDF selection.
	// The exponentials run either as an FHE circuit at the aggregator or in
	// committee MPCs; the CDF scan's comparisons always run on committees.
	expAggregator := p.add(plan.Vignette{
		Desc: "FHE exponentiation of all scores", Loc: plan.Aggregator,
		Count: rounds, Crypto: plan.CryptoFHE,
		Work: plan.Work{HEExps: st.c, HEMulPlains: st.c},
	})
	dec = p.add(plan.Vignette{
		Desc: "decrypt aggregate to secret shares", Loc: plan.Committee,
		Role: plan.RoleDecrypt, Parallel: true, Count: decCount * rounds,
		Crypto: plan.CryptoMPC,
		Work:   plan.Work{HEDecShares: 1, Shares: 1024},
	})
	for i, sigma := range widths {
		scanCount := ceilDiv(st.c, sigma)
		expCommittee := p.add(plan.Vignette{
			Desc: names.bySlice[i].exp,
			Loc:  plan.Committee, Role: plan.RoleOps,
			Parallel: scanCount > 1, Count: scanCount * rounds, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCExps: sigma, Shares: sigma},
		})
		scan := p.add(plan.Vignette{
			Desc: names.bySlice[i].scan,
			Loc:  plan.Committee, Role: plan.RoleOps,
			Parallel: scanCount > 1, Count: scanCount * rounds, Crypto: plan.CryptoMPC,
			Work: plan.Work{MPCCmps: sigma, MPCMults: sigma, Shares: sigma},
		})
		opts = append(opts, option{
			choiceVal: names.bySlice[i].expMPC,
			em:        mechanism.EMExponentiate,
			exec:      true,
			vigs:      p.carve([]int32{dec, expCommittee, scan, rerand}),
		}, option{
			choiceVal: names.bySlice[i].expFHE,
			em:        mechanism.EMExponentiate,
			exec:      false, // expAggregator is an FHE circuit
			vigs:      p.carve([]int32{expAggregator, dec, scan, rerand}),
		})
	}
	return opts
}

// topKOptions: top-k either peels (k full exponential-mechanism rounds) or
// noises once and runs k tournament passes (Section 2.1's two compositions).
func (sp searchSpace) topKOptions(st step, p *pool) []option {
	k := max(st.k, 1)
	// Peeling: k full rounds.
	opts := sp.emOptions(st, k, p)
	for i := range opts {
		o := &opts[i]
		o.choiceVal = names.peeled[o.choiceVal]
		o.exec = o.exec && o.em == mechanism.EMGumbel // the runtime peels with Gumbel-argmax rounds only
	}
	// One-shot: noise once, then k tournament passes — cheaper in MPC, and
	// by Durfee and Rogers distributed as k peeled rounds, so charged the
	// same k·ε. Priced only.
	noiseCount := ceilDiv(st.c, 1024)
	cts := sp.ctsFor(st.c)
	dec := p.add(plan.Vignette{
		Desc: "decrypt aggregate to secret shares", Loc: plan.Committee,
		Role: plan.RoleDecrypt, Parallel: true, Count: noiseCount,
		Crypto: plan.CryptoMPC,
		Work:   plan.Work{HEDecShares: 1, Shares: 1024},
	})
	noise := p.add(plan.Vignette{
		Desc: "gumbel noise (one-shot)", Loc: plan.Committee, Role: plan.RoleOps,
		Parallel: noiseCount > 1, Count: noiseCount, Crypto: plan.CryptoMPC,
		Work: plan.Work{MPCNoises: 1024, Shares: 1024},
	})
	rerand := p.add(plan.Vignette{
		Desc: "re-randomize inputs per released winner", Loc: plan.Device,
		Parallel: true, Count: sp.n, Crypto: plan.CryptoAHE,
		Work: plan.Work{HEEncs: cts * k, ZKPGens: cts * k, CtsOut: cts * k},
	})
	for j, psi := range fanouts {
		treeCount := ceilDiv(st.c, psi-1)
		opts = append(opts, option{
			choiceVal: names.byFanout[j].oneshot,
			exec:      false, // the runtime's top-k peels
			vigs: p.carve([]int32{dec, noise, p.add(plan.Vignette{
				Desc: names.byFanout[j].passes,
				Loc:  plan.Committee, Role: plan.RoleOps,
				Parallel: treeCount > 1, Count: treeCount * k, Crypto: plan.CryptoMPC,
				Work: plan.Work{MPCCmps: psi - 1, MPCMults: 2 * (psi - 1), Shares: psi},
			}), rerand}),
		})
	}
	return opts
}

// maxSelOptions: max/argmax over encrypted values — a tournament without
// noise.
func maxSelOptions(st step, p *pool) []option {
	opts := make([]option, 0, len(fanouts))
	dec := p.add(plan.Vignette{
		Desc: "decrypt to secret shares", Loc: plan.Committee,
		Role: plan.RoleDecrypt, Parallel: true, Count: ceilDiv(st.c, 1024),
		Crypto: plan.CryptoMPC,
		Work:   plan.Work{HEDecShares: 1, Shares: 1024},
	})
	for j, psi := range fanouts {
		treeCount := ceilDiv(st.c, psi-1)
		opts = append(opts, option{
			choiceVal: names.byFanout[j].tree,
			exec:      true,
			vigs: p.carve([]int32{dec, p.add(plan.Vignette{
				Desc: names.byFanout[j].max,
				Loc:  plan.Committee, Role: plan.RoleOps,
				Parallel: treeCount > 1, Count: treeCount, Crypto: plan.CryptoMPC,
				Work: plan.Work{MPCCmps: psi - 1, MPCMults: 2 * (psi - 1), Shares: psi},
			})}),
		})
	}
	return opts
}

func outputOptions(p *pool) []option {
	return []option{{
		choiceVal: "committee-reconstruct",
		exec:      true,
		vigs: p.carve([]int32{
			p.add(plan.Vignette{
				Desc: "reconstruct and release result", Loc: plan.Committee,
				Role: plan.RoleOps, Count: 1, Crypto: plan.CryptoMPC,
				Work: plan.Work{Shares: 2, MPCMults: 1},
			}),
			p.add(plan.Vignette{
				Desc: "publish result", Loc: plan.Aggregator, Count: 1,
				Crypto: plan.CryptoNone,
				Work:   plan.Work{SigVerifies: 1},
			}),
		}),
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
