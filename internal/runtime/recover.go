package runtime

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"arboretum/internal/faults"
)

// The runtime's typed failure modes. The fail-closed contract (docs/FAULTS.md)
// is that a query under fault injection either completes with a correct,
// in-budget answer or returns an error matching one of these — never a
// silently wrong or privacy-violating result.
var (
	// ErrCommitteeBroken: a committee fell below the reconstruction
	// threshold ⌊m/2⌋+1 (or the 3-member floor); its shares — and, for the
	// key holder, the private key — are unrecoverable.
	ErrCommitteeBroken = errors.New("runtime: committee below reconstruction threshold")
	// ErrCommitteeDegraded: a committee lost more than the churn tolerance
	// g·m but still has a reconstructing majority; the vignette aborts
	// before opening anything and recovery re-forms from the sortition pool.
	ErrCommitteeDegraded = errors.New("runtime: committee churn above tolerance")
	// ErrNoSpareCommittee: re-formation needed a spare committee but the
	// sortition pool is exhausted.
	ErrNoSpareCommittee = errors.New("runtime: sortition pool exhausted, no spare committee")
	// ErrHandoffFailed: a VSR hand-off did not complete within its retry
	// budget (it wraps the last attempt's cause, e.g.
	// vsr.ErrInsufficientShares when too many dealers vanished).
	ErrHandoffFailed = errors.New("runtime: VSR hand-off failed")
	// ErrNoValidInputs: every device upload was dropped (timeouts, churn)
	// or rejected (invalid proofs).
	ErrNoValidInputs = errors.New("runtime: no valid inputs")
	// ErrShardFailed: an ingest shard aggregator could not fold a
	// batch within its retry budget, or a restored batch-boundary
	// checkpoint did not verify against its recorded commitment.
	ErrShardFailed = errors.New("runtime: ingest shard failed")
)

// backoffPolicy is a capped exponential backoff: attempt n waits
// base·2^(n−1) up to cap before retrying, and the whole operation fails
// after attempts tries. The simulation never sleeps — delays accumulate into
// Metrics.BackoffSimulated so tests and the cost model can see what a real
// deployment would have waited.
type backoffPolicy struct {
	attempts int
	base     time.Duration
	cap      time.Duration
}

// delay returns the wait before retry number retry (0-based).
func (b backoffPolicy) delay(retry int) time.Duration {
	d := b.base << uint(retry)
	if d > b.cap {
		d = b.cap
	}
	return d
}

var (
	// uploadBackoff governs device upload retries (flaky phones on flaky
	// links: short waits, few tries — a device that cannot upload is simply
	// dropped, PAPAYA-style).
	uploadBackoff = backoffPolicy{attempts: 3, base: 50 * time.Millisecond, cap: 400 * time.Millisecond}
	// vignetteBackoff governs committee-vignette retries (each retry may
	// re-form the committee from the sortition pool first).
	vignetteBackoff = backoffPolicy{attempts: 3, base: 200 * time.Millisecond, cap: 2 * time.Second}
	// handoffBackoff governs VSR re-dealing retries after dealer failures.
	handoffBackoff = backoffPolicy{attempts: 3, base: 100 * time.Millisecond, cap: time.Second}
	// shardBackoff governs ingest shard-aggregator crash-recovery: each
	// retry restores the shard's last batch-boundary checkpoint (verified
	// against its recorded commitment) and refolds the batch.
	shardBackoff = backoffPolicy{attempts: 3, base: 500 * time.Millisecond, cap: 5 * time.Second}
)

// tallyUpload folds one upload's fault counters into the metrics and the
// fault log. It runs on the coordinating goroutine in device order (ingest),
// which keeps the log and the metrics identical at every worker count.
func (d *Deployment) tallyUpload(up uploadEvent) {
	d.Metrics.UploadTimeouts += up.timeouts
	d.Metrics.BackoffSimulated += up.backoff
	if up.dropped {
		d.Metrics.UploadRetries += up.timeouts - 1
		d.Metrics.UploadsDropped++
		d.cfg.Faults.Record(faults.Fault{
			Kind: faults.UploadTimeout, Idx: []int{up.dev},
			Note: fmt.Sprintf("device %d dropped after %d timeouts", up.dev, up.timeouts),
		})
		return
	}
	d.Metrics.UploadRetries += up.timeouts
	d.cfg.Faults.Record(faults.Fault{
		Kind: faults.UploadTimeout, Idx: []int{up.dev},
		Note: fmt.Sprintf("device %d recovered after %d timeouts", up.dev, up.timeouts),
	})
}

// FaultReport renders the plan, the fired-fault log, and the recovery
// counters after one or more runs — what `arboretum run -faults` prints so a
// schedule can be eyeballed and replayed. Empty without a fault plan.
func (d *Deployment) FaultReport() string {
	p := d.cfg.Faults
	if p == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault plan: %s\n", p)
	for _, f := range p.Fired() {
		fmt.Fprintf(&b, "  fault %s%v: %s\n", f.Kind, f.Idx, f.Note)
	}
	m := d.Metrics
	fmt.Fprintf(&b, "recovery: %d upload retries (%d devices dropped), %d member dropouts, %d re-formations, %d dealer failures, %d VSR re-deals, %d shard crashes (%d resumes), %d vignette retries, %v simulated backoff\n",
		m.UploadRetries, m.UploadsDropped, m.MemberDropouts, m.Reformations,
		m.DealerFailures, m.VSRRedeals, m.ShardCrashes, m.ShardResumes,
		m.VignetteRetries, m.BackoffSimulated)
	return b.String()
}
