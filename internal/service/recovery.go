package service

import (
	"time"

	"arboretum/internal/ledger"
)

// A job's durable life is its records in the ledger — reserve, then maybe
// claim, then commit or release — and this file is the two directions of
// that correspondence: replay folds the records ledger.Open replays into
// jobs, and jobRecords renders jobs back into records for compaction.
// Startup recovery sits between them, and it reads one state per job:
//
//	terminal                   — restore it as history.
//	in flight                  — queue it again. Same source, same fault
//	                             spec, same seed (Config.Seed + the job's
//	                             sequence number): the re-run reproduces the
//	                             first one bit-for-bit and commits exactly
//	                             the certified spend.
//	in flight, not re-runnable — under SecureNoise (a second run would mint
//	                             a second, different DP release against one
//	                             certificate), or a reservation that carries
//	                             no payload (a ledger written before jobs
//	                             lived in it): commit it at the reserved
//	                             amount with code "crashed". Fail-closed in
//	                             the only safe direction, and still exact,
//	                             because the reservation is the certified
//	                             price.
//
// The invariant all three keep is the service's core contract: a tenant is
// charged exactly the certified spend of each job whose outputs were (or
// will be) released, and nothing for the rest — at every prefix of the log.

// replay is the job table folded from the ledger's replayed records; the
// zero value is ready to fold.
type replay struct {
	jobs  []*Job             // in order of first reservation
	byKey map[[2]string]*Job // {tenant, job id}: job ids are unique per tenant
}

// fold is the ledger.Options.Replay hook. The ledger has already applied r,
// so the sequence is known to be well-formed: every claim, commit and
// release follows its job's reserve.
func (rp *replay) fold(r *ledger.Record) {
	if r.Job == "" {
		return // create, checkpoint: the ledger's own business
	}
	key := [2]string{r.Tenant, r.Job}
	if r.Op != ledger.OpReserve {
		rp.byKey[key].settle(r)
		return
	}
	j, seen := rp.byKey[key]
	if !seen {
		if rp.byKey == nil {
			rp.byKey = map[[2]string]*Job{}
		}
		j = new(Job)
		rp.byKey[key] = j
		rp.jobs = append(rp.jobs, j)
	}
	*j = Job{
		ID: r.Job, Tenant: r.Tenant, State: JobQueued,
		Epsilon: r.Eps, Delta: r.Del,
		TimeoutSeconds: r.Timeout,
		Recovered:      true,
		source:         r.Source, faults: r.Faults, seq: r.JobSeq,
	}
}

// settle moves the job through one post-reserve record. It is the only
// reading of what those records mean: a commit is done, unless it carries
// the error code of a fail-closed charge; a release is failed with its note
// as the code, unless the note is the cancellation's.
func (j *Job) settle(r *ledger.Record) {
	switch {
	case r.Op == ledger.OpClaim:
		j.State, j.claimed = JobRunning, true
	case r.Op == ledger.OpCommit && r.Code == "":
		j.State, j.ResultDigest = JobDone, r.Digest
		j.SpentEpsilon, j.SpentDelta = r.Eps, r.Del
	case r.Op == ledger.OpCommit:
		j.State, j.ErrorCode = JobFailed, r.Code
		j.SpentEpsilon, j.SpentDelta = r.Eps, r.Del
	case r.Note == ledger.NoteCanceled:
		j.State = JobCanceled
	default:
		j.State, j.ErrorCode = JobFailed, r.Note
	}
}

// jobRecords renders jobs as the shortest record sequence that replays to
// them — compaction's rebuild source. Evicted jobs are simply absent, which
// is how the file stays bounded by the retention cap.
func jobRecords(jobs []Job) []*ledger.Record {
	recs := make([]*ledger.Record, 0, 3*len(jobs))
	for i := range jobs {
		j := &jobs[i]
		rec := func(op ledger.Op) *ledger.Record {
			r := &ledger.Record{Op: op, Tenant: j.Tenant, Job: j.ID}
			recs = append(recs, r)
			return r
		}
		r := rec(ledger.OpReserve)
		r.Eps, r.Del = j.Epsilon, j.Delta
		r.Source, r.Faults, r.JobSeq, r.Timeout = j.source, j.faults, j.seq, j.TimeoutSeconds
		if j.claimed {
			rec(ledger.OpClaim)
		}
		switch {
		case j.State == JobDone:
			r := rec(ledger.OpCommit)
			r.Eps, r.Del, r.Digest = j.SpentEpsilon, j.SpentDelta, j.ResultDigest
		case j.State == JobFailed && j.SpentEpsilon > 0:
			r := rec(ledger.OpCommit)
			r.Eps, r.Del, r.Code = j.SpentEpsilon, j.SpentDelta, j.ErrorCode
		case j.State == JobFailed:
			rec(ledger.OpRelease).Note = j.ErrorCode
		case j.State == JobCanceled:
			rec(ledger.OpRelease).Note = ledger.NoteCanceled
		}
	}
	return recs
}

// recoverJobs runs once, before the executor pool starts (so it owns the
// store and the ledger without contention).
func (s *Server) recoverJobs(jobs []*Job) error {
	now := time.Now()
	requeued, restored, charged := 0, 0, 0
	for _, j := range jobs {
		j.Submitted = now
		switch {
		case j.terminal():
			// The outcome is already decided. Done jobs keep their digest but
			// not their outputs (those died with the old process — the digest
			// still pins what was released).
			if j.State == JobFailed {
				j.Error = "failed before restart (code " + j.ErrorCode + "; detail not retained in the ledger)"
			}
			restored++
		case s.cfg.SecureNoise || j.source == "":
			rec := &ledger.Record{
				Op: ledger.OpCommit, Tenant: j.Tenant, Job: j.ID,
				Eps: j.Epsilon, Del: j.Delta, Code: "crashed",
			}
			if err := s.ledger.Append(rec, nil); err != nil {
				return err
			}
			j.settle(rec)
			j.Error = "daemon crashed mid-job and the job cannot be re-executed exactly (SecureNoise, or a reservation without a job payload), so the reservation was charged fail-closed"
			charged++
		default:
			requeued++
		}
		if j.terminal() {
			j.Finished = now
		}
		s.store.restore(j)
	}
	if len(jobs) > 0 {
		s.cfg.Logf("service: recovery: %d jobs re-enqueued for re-execution, %d restored terminal, %d charged fail-closed",
			requeued, restored, charged)
	}
	s.recovered = requeued
	s.maybeCompact()
	return nil
}
