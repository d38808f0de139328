package runtime

import (
	"fmt"

	"arboretum/internal/faults"
	"arboretum/internal/fixed"
	"arboretum/internal/lang"
	"arboretum/internal/mechanism"
	"arboretum/internal/mpc"
	"arboretum/internal/sortition"
)

// committeeExec is one committee running MPC vignettes: an engine plus the
// members selected by sortition.
type committeeExec struct {
	engine  *mpc.Engine
	members sortition.Committee
	dep     *Deployment

	// Already-flushed counters, so flushMetrics can be called repeatedly
	// (committees stay live after rotation when they still own shares).
	flushedBytes  int64
	flushedRounds int
	flushedCmps   int

	// Fault-injection state: lost marks member positions that dropped
	// mid-vignette; the remaining fields address the MemberDropout
	// injection point (vignette sequence, attempt, round within the
	// vignette). Dropouts inject only between beginVignette/endVignette —
	// the mechanism vignettes of docs/FAULTS.md — so schedules stay aligned
	// with the execution structure. All of it is coordinator-goroutine
	// state, like the engine itself.
	lost       map[int]bool
	vigSeq     int
	attempt    int
	rounds     int
	inVignette bool

	// site is the call site of the running vignette: the key its opens of
	// noised values are tallied under (Deployment.spent).
	site lang.Pos
}

func (d *Deployment) newCommittee(members sortition.Committee) (*committeeExec, error) {
	eng, err := mpc.NewEngine(len(members))
	if err != nil {
		return nil, err
	}
	ce := &committeeExec{engine: eng, members: members, dep: d, lost: map[int]bool{}}
	eng.SetRoundObserver(func(int) { ce.observeRound() })
	d.execs = append(d.execs, ce)
	return ce, nil
}

// beginVignette opens a MemberDropout injection window for one attempt of
// the mechanism vignette at call site site.
func (ce *committeeExec) beginVignette(seq, attempt int, site lang.Pos) {
	ce.vigSeq, ce.attempt, ce.rounds, ce.inVignette, ce.site = seq, attempt, 0, true, site
}

// endVignette closes the injection window (members lost stay lost).
func (ce *committeeExec) endVignette() { ce.inVignette = false }

// observeRound runs after every MPC broadcast round inside a vignette: the
// plan decides — purely from (seed, vignette, attempt, round) — whether one
// more member becomes unreachable, and Pick chooses the victim among the
// still-reachable positions.
func (ce *committeeExec) observeRound() {
	if !ce.inVignette {
		return
	}
	round := ce.rounds
	ce.rounds++
	p := ce.dep.cfg.Faults
	if !p.Fires(faults.MemberDropout, ce.vigSeq, ce.attempt, round) {
		return
	}
	var alive []int
	for i := range ce.members {
		if !ce.lost[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return
	}
	pos := alive[p.Pick(len(alive), faults.MemberDropout, ce.vigSeq, ce.attempt, round)]
	ce.lost[pos] = true
	ce.dep.Metrics.MemberDropouts++
	// The note names the member's position, not its device ID: sortition
	// membership depends on crypto/rand device keys, so positions keep the
	// fault report replayable from the seeds alone.
	p.Record(faults.Fault{
		Kind: faults.MemberDropout, Idx: []int{ce.vigSeq, ce.attempt, round},
		Note: fmt.Sprintf("member %d of %d left committee mid-round", pos, len(ce.members)),
	})
}

// health is the fail-closed gate the vignette protocols call at step
// boundaries — always before opening anything: the formation check
// (Deployment.reachable) against the members lost mid-execution.
func (ce *committeeExec) health() error {
	return ce.dep.reachable(len(ce.members)-len(ce.lost), len(ce.members))
}

// spend tallies one open of a value noised at ε against the vignette's call
// site.
func (ce *committeeExec) spend(eps float64) { ce.dep.spent[ce.site] += eps }

// flushMetrics folds the engine's traffic into the deployment metrics
// (idempotent: only deltas since the last flush count).
func (ce *committeeExec) flushMetrics() {
	st := ce.engine.Stats()
	dBytes := st.TotalBytes - ce.flushedBytes
	dRounds := st.Rounds - ce.flushedRounds
	dCmps := st.Comparisons - ce.flushedCmps
	ce.flushedBytes, ce.flushedRounds, ce.flushedCmps = st.TotalBytes, st.Rounds, st.Comparisons
	ce.dep.Metrics.CommitteeBytes += dBytes
	ce.dep.Metrics.MPCRounds += dRounds
	ce.dep.Metrics.MPCComparisons += dCmps
	// The aggregator forwards inter-member traffic (mailbox, Section 5.4).
	ce.dep.Metrics.AggregatorBytes += dBytes
}

// laplaceShared noises a shared value inside the MPC and opens it.
func (ce *committeeExec) laplaceShared(sec mpc.Secret, n noise) (fixed.Fixed, error) {
	noised := ce.engine.Add(sec, ce.engine.JointFixed(n.laplace(ce.dep.noiseRand())))
	if err := ce.health(); err != nil {
		return 0, err
	}
	v := ce.engine.OpenFixed(noised)
	ce.spend(n.eps)
	return v, nil
}

// gumbelArgmax is the em variant of Figure 4 (right) as a committee MPC:
// add Gumbel(2·sens/ε) to every shared score, open only the argmax.
func (ce *committeeExec) gumbelArgmax(scores []mpc.Secret, n noise) (int, error) {
	rng := ce.dep.noiseRand()
	noised := make([]mpc.Secret, len(scores))
	for i, s := range scores {
		noised[i] = ce.engine.Add(s, ce.engine.JointFixed(mechanism.Gumbel(rng, n.scale)))
	}
	if err := ce.health(); err != nil {
		return 0, err
	}
	idx, err := ce.engine.Argmax(noised)
	if err != nil {
		return 0, err
	}
	if err := ce.health(); err != nil {
		return 0, err
	}
	winner := int(ce.engine.Open(idx))
	ce.spend(n.eps)
	return winner, nil
}

// emExpWindow is the normalization window of the exponentiation variant:
// scores more than window·(2·sens/ε) below the maximum round to weight 0
// (the paper normalizes to 16 bits; the MPC fixed-point range fits a window
// of 5 natural-log units — Section 6's finite-precision δ applies either
// way).
const emExpWindow = 5.0

// exponentiateSelect is the em variant of Figure 4 (left) as a committee
// MPC: normalize scores against the maximum, exponentiate in fixed point,
// and select an index by inverse-CDF sampling — all on shares; only the
// chosen index is opened.
func (ce *committeeExec) exponentiateSelect(scores []mpc.Secret, n noise) (int, error) {
	e := ce.engine
	maxS, err := e.Max(scores)
	if err != nil {
		return 0, err
	}
	// low = max − window/k where k = ε/(2·sens); x_i = (s_i − low)·k ∈ (−∞, window].
	k := fixed.FromFloat(n.rate)
	lowOffset := fixed.FromFloat(emExpWindow / n.rate)
	low := e.AddConst(maxS, -int64(lowOffset))
	weights := make([]mpc.Secret, len(scores))
	zero := e.JointFixed(0)
	for i, s := range scores {
		if err := ce.health(); err != nil {
			return 0, err
		}
		t := e.Sub(s, low)
		// x = t·k, rescaled.
		x := e.MulConst(t, int64(k))
		x, err := e.Trunc(x, fixed.FracBits)
		if err != nil {
			return 0, err
		}
		neg, err := e.LTZ(t)
		if err != nil {
			return 0, err
		}
		// Clamp x into [0, window] so FixedExp's contract holds even for
		// excluded scores; their weight is zeroed by the select below.
		xClamped := e.Select(neg, zero, x)
		w, err := e.FixedExp(xClamped)
		if err != nil {
			return 0, err
		}
		weights[i] = e.Select(neg, zero, w)
	}
	total, err := e.Sum(weights)
	if err != nil {
		return 0, err
	}
	// r = u·total for joint uniform u ∈ (0,1).
	u := ce.dep.noiseRand().Uniform()
	r, err := e.FixedMul(e.JointFixed(u), total)
	if err != nil {
		return 0, err
	}
	// index = Σ_i [cum_i ≤ r]: the bracket of the CDF scan.
	cum := weights[0]
	idxAcc := e.JointSecret(0)
	for i := 0; i < len(weights); i++ {
		if i > 0 {
			cum = e.Add(cum, weights[i])
		}
		lt, err := e.Less(r, cum) // 1 when r < cum_i → bracket found at or before i
		if err != nil {
			return 0, err
		}
		// [cum_i ≤ r] = 1 − [r < cum_i]
		notLt := e.AddConst(e.MulConst(lt, -1), 1)
		idxAcc = e.Add(idxAcc, notLt)
	}
	if err := ce.health(); err != nil {
		return 0, err
	}
	idx := int(e.Open(idxAcc))
	ce.spend(n.eps)
	if idx >= len(scores) {
		idx = len(scores) - 1
	}
	return idx, nil
}

// maxShared returns the shared maximum value (kept secret).
func (ce *committeeExec) maxShared(scores []mpc.Secret) (mpc.Secret, error) {
	if err := ce.health(); err != nil {
		return mpc.Secret{}, err
	}
	return ce.engine.Max(scores)
}

// topKSelect peels gumbelArgmax rounds with exclusion until k winners are
// open; each winner's score is pushed far below the rest before the next
// round. won holds the winners an earlier attempt of the vignette already
// opened: they are excluded up front and not drawn again, so a retried
// vignette opens k winners in all. It returns every winner opened so far,
// also on error.
func (ce *committeeExec) topKSelect(scores []mpc.Secret, won []int, k int, n noise) ([]int, error) {
	if k < 1 || k > len(scores) {
		return won, fmt.Errorf("runtime: top-k with k=%d over %d scores", k, len(scores))
	}
	work := make([]mpc.Secret, len(scores))
	copy(work, scores)
	const exclusion = int64(1) << 40
	for _, idx := range won {
		work[idx] = ce.engine.AddConst(work[idx], -exclusion)
	}
	for len(won) < k {
		idx, err := ce.gumbelArgmax(work, n)
		if err != nil {
			return won, err
		}
		won = append(won, idx)
		work[idx] = ce.engine.AddConst(work[idx], -exclusion)
	}
	return won, nil
}
