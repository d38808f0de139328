// Package service is arboretumd's analyst gateway: the long-lived,
// multi-tenant HTTP surface over the one-shot certify → plan → execute
// pipeline that cmd/arboretum runs per invocation. It has three parts —
// transport (handlers.go: the /v1 API of docs/SERVICE.md), a job store
// with an asynchronous executor pool (jobs.go, this file; the pool is
// internal/parallel.ForEach draining a bounded queue), and the mapping
// between jobs and the records of internal/ledger (recovery.go), the
// gateway's one durable file.
//
// The budget lifecycle is the service's core contract, and a job's life is
// the same four records. At admission the query is certified
// (runtime.Certify) and exactly the certificate's (ε, δ) is reserved — the
// reserve record is the submission, carrying what a restart needs to run
// the job again — and a query whose certified cost exceeds the tenant's
// remaining budget is rejected with a typed error before anything is
// written or executed. Each admitted job is claimed (one record) and runs
// on its own simulated deployment (seeded from the server seed and the job
// sequence, so any job replays bit-for-bit) whose runtime budget equals the
// reservation, extending the runtime's fail-closed guarantee to the service
// boundary: on success the commit record makes exactly the executed
// certificate's spend permanent and carries the result digest; on failure —
// including fault-injected fail-closed runs — the release record returns
// the reservation and the tenant spends nothing.
//
// Every transition is one ledger.Append, durable before it is observable,
// and the job table moves inside the append's critical section, so memory
// is never ahead of the log nor visibly behind it. Jobs are therefore
// crash-resumable with no pairing step: a restarted daemon replays the log
// into jobs, restores the terminal ones, and re-executes the rest
// deterministically from the same seed — committing exactly the certified
// spend and reproducing bit-identical outputs (recovery.go). A record that
// cannot be made durable means the log is gone, and the gateway stops with
// it: the job stays in flight for the next start. Execution is
// deadline-bounded (Config.JobTimeout plus a per-submission override): an
// overdue job is canceled at the runtime's next checkpoint, its reservation
// released, and its executor slot reclaimed. Injected daemon deaths at the
// job-lifecycle boundaries (the faults "daemon" kind) and injected WAL
// crashes at every record (the "wal" kind) drive the chaos restart sweeps in
// recovery_test.go.
//
// Per-tenant token-bucket rate limiting, a per-tenant in-flight cap, and
// a bounded queue protect the executor.
//
// Concurrency: jobs are independent by construction — each owns a private
// runtime.Deployment (a Deployment is not safe for concurrent use, so one
// is never shared), the ledger and the job table serialize under their own
// locks (ledger before store, never the reverse), and all fan-out goes
// through internal/parallel except the per-job watchdog goroutine that
// bounds a wedged run (runJob). See docs/CONCURRENCY.md.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"arboretum/internal/faults"
	"arboretum/internal/ledger"
	"arboretum/internal/parallel"
	"arboretum/internal/runtime"
)

// TenantSpec seeds one tenant's budget at startup (idempotent across
// restarts: an existing tenant keeps its recorded allowance and history).
type TenantSpec struct {
	ID      string
	Epsilon float64
	Delta   float64
}

// Config shapes the gateway.
type Config struct {
	// LedgerPath is the gateway's one durable file (required): the WAL of
	// tenant budgets and job lifecycles.
	LedgerPath string
	// Tenants are created if absent when the server starts.
	Tenants []TenantSpec

	// Deployment shape for job execution: each job runs on its own
	// simulated deployment of Devices devices (default 96), Categories
	// categories (default 8), committees of CommitteeSize (default 5),
	// seeded Seed+job-sequence.
	Devices       int
	Categories    int
	CommitteeSize int
	Seed          int64
	// SecureNoise draws committee noise from crypto/rand instead of the
	// seeded simulation stream (a production deployment must set it; the
	// default keeps job runs replayable from their seed). It also disables
	// deterministic re-execution: jobs in flight at a crash are settled
	// fail-closed at restart instead of re-run.
	SecureNoise bool

	// Workers bounds each job's runtime worker pool (0 = auto).
	// JobWorkers bounds how many jobs execute concurrently (default 2).
	// QueueDepth bounds the submit queue (default 64; full queue = 503).
	Workers    int
	JobWorkers int
	QueueDepth int

	// JobTimeout bounds each job's execution (0 = no deadline); a
	// submission may override it per job with timeout_seconds. An overdue
	// job is canceled at the runtime's next checkpoint, fails with code
	// deadline_exceeded, and releases its reservation.
	JobTimeout time.Duration

	// RetainJobs caps the terminal jobs kept in memory and, through
	// compaction, in the ledger (default 10000): past it the oldest settled
	// jobs are evicted and their status reads return a typed "expired"
	// error.
	RetainJobs int

	// Rate/Burst are the per-tenant token bucket: Rate submissions per
	// second sustained, Burst instantly (0 disables). MaxInFlight caps a
	// tenant's queued+running jobs (0 = unlimited).
	Rate        float64
	Burst       int
	MaxInFlight int

	// FaultSpec is the default fault-injection schedule applied to every
	// job's deployment (docs/FAULTS.md); a submission may override it.
	// LedgerFaults injects simulated crashes into the ledger's WAL write
	// paths (the "wal" kind); DaemonFaults injects simulated daemon deaths
	// at job-lifecycle boundaries (the "daemon" kind) — chaos testing only.
	FaultSpec    string
	LedgerFaults *faults.Plan
	DaemonFaults *faults.Plan

	// Logf receives operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// abandonGrace is how long past its deadline a run may keep its executor
// slot: a run normally returns from a cancellation checkpoint almost
// immediately, but one wedged between checkpoints is abandoned after the
// grace — the slot is reclaimed and the run's eventual result discarded.
const abandonGrace = 2 * time.Second

// Server is a running gateway. Create with New, expose via Handler, stop
// with Close (wait for running jobs) or Drain (bounded wait).
type Server struct {
	cfg     Config
	ledger  *ledger.Ledger
	store   *store
	limiter *tenantLimiter
	started time.Time

	crash      *faults.Plan // injected daemon deaths (Config.DaemonFaults)
	crashed    atomic.Bool  // an injected death fired or the log died: the "process" is gone
	draining   atomic.Bool  // Drain/Close began: stop claiming queued jobs
	abandoning atomic.Bool  // Drain's deadline passed: running jobs dropped

	// recovered counts the jobs re-enqueued for deterministic re-execution
	// at startup (health gauge; written before workers start).
	recovered int

	// running maps in-flight job IDs to their cancel funcs so a drain
	// deadline can abandon them.
	runMu   sync.Mutex
	running map[string]context.CancelFunc

	// lastCompact is the ledger sequence right after the last compaction;
	// the ledger is rewritten from the job table when enough records pile up
	// past it.
	lastCompact atomic.Uint64

	// hold, when non-nil, makes executor workers block on it before each
	// dequeued job — a test hook for deterministic queue scenarios.
	hold chan struct{}

	closeOnce   sync.Once
	closeErr    error
	workersDone chan struct{}
}

// New opens the ledger, folds its records into jobs, recovers every job the
// log leaves in flight (re-enqueueing it for deterministic re-execution —
// see recovery.go), seeds the configured tenants, and starts the executor
// pool.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, nil)
}

// newServer is New plus the executor hold gate (nil in production; tests
// install a channel to keep dequeued jobs parked deterministically).
func newServer(cfg Config, hold chan struct{}) (*Server, error) {
	if cfg.LedgerPath == "" {
		return nil, fmt.Errorf("service: Config.LedgerPath is required")
	}
	if cfg.Devices == 0 {
		cfg.Devices = 96
	}
	if cfg.Categories == 0 {
		cfg.Categories = 8
	}
	if cfg.CommitteeSize == 0 {
		cfg.CommitteeSize = 5
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if _, err := faults.Parse(cfg.FaultSpec); err != nil {
		return nil, fmt.Errorf("service: default fault spec: %w", err)
	}
	var replayed replay
	led, err := ledger.Open(cfg.LedgerPath, ledger.Options{Crash: cfg.LedgerFaults, Replay: replayed.fold})
	if err != nil {
		return nil, err
	}
	for _, t := range cfg.Tenants {
		if err := led.EnsureTenant(t.ID, t.Epsilon, t.Delta); err != nil {
			return nil, errors.Join(err, led.Close())
		}
	}
	inflight := 0
	for _, j := range replayed.jobs {
		if !j.terminal() {
			inflight++
		}
	}
	s := &Server{
		cfg:         cfg,
		ledger:      led,
		store:       newStore(cfg.QueueDepth, inflight, cfg.RetainJobs),
		limiter:     newTenantLimiter(cfg.Rate, cfg.Burst, nil),
		started:     time.Now(),
		crash:       cfg.DaemonFaults,
		running:     map[string]context.CancelFunc{},
		hold:        hold,
		workersDone: make(chan struct{}),
	}
	if err := s.recoverJobs(replayed.jobs); err != nil {
		return nil, errors.Join(fmt.Errorf("service: crash recovery: %w", err), led.Close())
	}
	//arblint:ignore rawgo daemon-lifecycle supervisor, not data-path fan-out; joined via workersDone on Close
	go s.runWorkers()
	return s, nil
}

// runWorkers drains the queue on a pool of JobWorkers workers. ForEach
// gives the pool the repo-wide worker discipline for free: panic
// forwarding, and one place (internal/parallel) where goroutines are born.
func (s *Server) runWorkers() {
	defer close(s.workersDone)
	n := s.cfg.JobWorkers
	err := parallel.ForEach(nil, n, n, func(int) error {
		for j := range s.store.queue {
			if s.hold != nil {
				<-s.hold
			}
			// A "dead" daemon executes nothing more, and a draining one
			// stops claiming: either way the skipped job stays in the log
			// with its reservation held, and the next startup recovers it.
			if s.crashed.Load() || s.draining.Load() {
				continue
			}
			s.execute(j)
		}
		return nil
	})
	if err != nil {
		s.cfg.Logf("service: executor pool: %v", err)
	}
}

// Ledger exposes the budget ledger (read paths are used by handlers and
// tests; the job lifecycle is the only writer).
func (s *Server) Ledger() *ledger.Ledger { return s.ledger }

// Crashed reports whether the gateway has stopped as a dead process would —
// an injected daemon death fired, or a record could not be made durable
// (chaos tests restart against the same ledger afterwards).
func (s *Server) Crashed() bool { return s.crashed.Load() }

// Close stops admission (late submissions get 503 shutting_down), stops
// claiming queued jobs, waits for running jobs to finish, and closes the
// ledger. Jobs still queued keep their reserve records and so their
// reservations: the next startup re-enqueues and re-executes them
// deterministically. Close is idempotent; repeated calls return the first
// result.
func (s *Server) Close() error { return s.Drain(-1) }

// Drain is Close with a bounded wait: running jobs get up to timeout to
// finish (negative = forever); past it they are canceled and abandoned
// un-settled — claimed in the log, their reservations held — so the next
// startup re-executes them exactly like a crash. Queued jobs are never
// started once draining begins.
func (s *Server) Drain(timeout time.Duration) error {
	s.closeOnce.Do(func() {
		s.draining.Store(true)
		s.store.close()
		if timeout < 0 {
			<-s.workersDone
		} else {
			select {
			case <-s.workersDone:
			case <-time.After(timeout):
				// Deadline passed: abandon the stragglers. Settlement is
				// suppressed (abandoning) so nothing durable happens after
				// this point and restart recovery re-runs them.
				s.abandoning.Store(true)
				s.cancelRunning()
				s.cfg.Logf("service: drain timeout after %v; abandoning running jobs for restart recovery", timeout)
			}
		}
		s.closeErr = s.ledger.Close()
	})
	return s.closeErr
}

// cancelRunning cancels every in-flight job context.
func (s *Server) cancelRunning() {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	for _, cancel := range s.running {
		cancel()
	}
}

// die simulates the daemon's death at a job-lifecycle boundary (the
// "daemon" fault kind): record the fault and halt.
func (s *Server) die(j *Job, stage int, note string) {
	s.crash.Record(faults.Fault{
		Kind: faults.DaemonCrash, Idx: []int{int(j.seq), stage},
		Note: fmt.Sprintf("job %s/%s: %s", j.Tenant, j.ID, note),
	})
	s.cfg.Logf("service: injected daemon crash (job %s, stage %d): %s", j.ID, stage, note)
	s.halt()
}

// halt stops the gateway the way a process death would: nothing more is
// admitted, executed or settled, and the ledger's descriptor is closed — the
// way the kernel would, every record already being fsynced — so a
// "restarted" server can reopen the same file and recover.
func (s *Server) halt() {
	s.crashed.Store(true)
	s.store.close()
	//arblint:ignore errdiscard simulated daemon crash: the abrupt teardown IS the fault being injected
	s.ledger.Close()
}

// logLost handles a write to the ledger that did not become durable. The
// transition it described did not happen: a job it belongs to stays where
// the log has it, for the next start to recover. If the log itself is dead (an injected
// WAL crash, a failed write), so is the gateway.
func (s *Server) logLost(what string, err error) {
	s.cfg.Logf("service: %s did not become durable: %v", what, err)
	if errors.Is(err, ledger.ErrCrashed) {
		s.halt()
	}
}

// jobContext builds the job's deadline context: the per-submission
// timeout_seconds override, else Config.JobTimeout, else no deadline.
func (s *Server) jobContext(j *Job) (context.Context, context.CancelFunc) {
	d := time.Duration(j.TimeoutSeconds * float64(time.Second))
	if d <= 0 {
		d = s.cfg.JobTimeout
	}
	if d <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), d)
}

// execute runs one dequeued job end to end and settles its reservation.
// The numbered crash stages are the "daemon" fault kind's injection points
// (docs/FAULTS.md): each simulates the process dying at that boundary, and
// the restart-recovery tests assert that replaying the log puts every such
// job back.
func (s *Server) execute(j *Job) {
	// A job canceled while queued has nothing left to run against (and
	// should not trip a crash stage on its way out).
	if cur, ok, _ := s.store.get(j.ID); !ok || cur.State != JobQueued {
		return
	}
	seq := int(j.seq)
	if s.crash.Fires(faults.DaemonCrash, seq, 0) {
		s.die(j, 0, "crashed before the claim became durable")
		return
	}
	// Claim queued → running: one record, with the job table following it
	// inside the append. The ledger decides the race with a cancel — a
	// cancel that got there first has released the reservation and the
	// claim is refused; after the claim, it is the cancel that is refused.
	// A recovered job whose claim the last process made durable skips the
	// record, not the transition.
	claim := func() { s.store.claim(j.ID) }
	if j.claimed {
		claim()
	} else {
		rec := &ledger.Record{Op: ledger.OpClaim, Tenant: j.Tenant, Job: j.ID}
		if err := s.ledger.Append(rec, claim); err != nil {
			if !errors.Is(err, ledger.ErrNoReservation) {
				s.logLost(rec.WALDesc(), err)
			}
			return
		}
	}
	if s.crash.Fires(faults.DaemonCrash, seq, 1) {
		s.die(j, 1, "crashed after the claim became durable, before execution")
		return
	}

	ctx, cancel := s.jobContext(j)
	s.runMu.Lock()
	s.running[j.ID] = cancel
	s.runMu.Unlock()
	// Stage 2 kills the daemon mid-execute: cancel the run's context so it
	// aborts at its next checkpoint — exercising the same cooperative
	// cancellation deadlines use — then die without settling anything.
	midExecute := s.crash.Fires(faults.DaemonCrash, seq, 2)
	if midExecute {
		cancel()
	}
	res, report, err := s.runJob(ctx, j)
	cancel()
	s.runMu.Lock()
	delete(s.running, j.ID)
	s.runMu.Unlock()
	if midExecute {
		s.die(j, 2, "crashed mid-execute")
		return
	}
	if err != nil {
		if s.abandoning.Load() && errors.Is(err, context.Canceled) {
			// Drain abandoned this run: leave it claimed and its
			// reservation held so the next startup re-executes it.
			return
		}
		// Release the whole reservation: a run that failed closed spends
		// nothing. The note is the job's error code.
		code := classify(err)
		s.settle(j, &ledger.Record{Op: ledger.OpRelease, Tenant: j.Tenant, Job: j.ID, Note: code}, func(j *Job) {
			j.State = JobFailed
			j.Error = err.Error()
			j.ErrorCode = code
			j.FaultReport = report
		})
		return
	}
	if s.crash.Fires(faults.DaemonCrash, seq, 3) {
		s.die(j, 3, "crashed after the run, before the budget commit")
		return
	}
	// Commit exactly the executed certificate's spend, with the digest of
	// what is about to be released.
	outs := make([]float64, len(res.Outputs))
	for i, o := range res.Outputs {
		outs[i] = o.Float()
	}
	commit := &ledger.Record{
		Op: ledger.OpCommit, Tenant: j.Tenant, Job: j.ID,
		Eps: res.Certificate.Epsilon, Del: res.Certificate.Delta,
		Digest: resultDigest(outs, res.Accepted, res.Sampled),
	}
	s.settle(j, commit, func(j *Job) {
		j.State = JobDone
		j.SpentEpsilon = commit.Eps
		j.SpentDelta = commit.Del
		j.Outputs = outs
		j.AcceptedInputs = res.Accepted
		j.SampledDevices = res.Sampled
		j.FaultReport = report
		j.ResultDigest = commit.Digest
	})
}

// settle appends the job's terminal record and moves the job table to the
// terminal state inside the append, so the outcome is durable before it is
// visible and the two are one step. If the record does not become durable
// nothing was settled: the job stays running here and in the log, and a
// restart finds exactly a job that crashed before settling — it re-executes
// to the same digest and commits then.
func (s *Server) settle(j *Job, rec *ledger.Record, terminal func(*Job)) {
	err := s.ledger.Append(rec, func() {
		s.store.update(j.ID, func(j *Job) {
			j.Finished = time.Now()
			terminal(j)
		})
	})
	if err != nil {
		s.logLost(rec.WALDesc(), err)
		return
	}
	s.maybeCompact()
}

// runJob executes the deployment under a watchdog. The run honors its
// context at the runtime's cancellation checkpoints, so a deadline
// normally surfaces as a prompt typed error from the run itself; a run
// wedged between checkpoints is abandoned abandonGrace past the deadline —
// the executor slot is reclaimed and the stray goroutine's eventual result
// discarded (it cannot settle: settlement happens exactly once, here).
func (s *Server) runJob(ctx context.Context, j *Job) (*runtime.Result, string, error) {
	type outcome struct {
		res    *runtime.Result
		report string
		err    error
	}
	ch := make(chan outcome, 1)
	//arblint:ignore rawgo per-job watchdog so a deadline can abandon a wedged deployment; buffered channel, never leaks
	go func() {
		res, report, err := s.runDeployment(ctx, j)
		ch <- outcome{res, report, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.report, o.err
	case <-ctx.Done():
	}
	select {
	case o := <-ch:
		return o.res, o.report, o.err
	case <-time.After(abandonGrace):
		return nil, "", fmt.Errorf("service: run abandoned %v past its deadline: %w", abandonGrace, ctx.Err())
	}
}

// runDeployment builds the job's private deployment and runs the query.
// The deployment's budget is exactly the reservation, so the runtime's own
// budget check enforces the admission decision end to end.
func (s *Server) runDeployment(ctx context.Context, j *Job) (*runtime.Result, string, error) {
	spec := j.faults
	if spec == "" {
		spec = s.cfg.FaultSpec
	}
	plan, err := faults.Parse(spec)
	if err != nil {
		return nil, "", fmt.Errorf("fault spec: %w", err)
	}
	dep, err := runtime.NewDeployment(runtime.Config{
		N:             s.cfg.Devices,
		Categories:    s.cfg.Categories,
		CommitteeSize: s.cfg.CommitteeSize,
		Seed:          s.cfg.Seed + int64(j.seq),
		BudgetEpsilon: j.Epsilon,
		Workers:       s.cfg.Workers,
		SecureNoise:   s.cfg.SecureNoise,
		Faults:        plan,
	})
	if err != nil {
		return nil, "", err
	}
	res, err := dep.Run(j.source, runtime.RunOptions{Ctx: ctx})
	report := ""
	if spec != "" {
		report = dep.FaultReport()
	}
	return res, report, err
}

// maybeCompact rewrites the ledger from the live job table once enough
// records have piled up since the last compaction, bounding the file on a
// long-lived daemon (evicted jobs drop out of the rewrite; their spend stays
// in the tenants' checkpoints).
func (s *Server) maybeCompact() {
	every := uint64(4 * s.store.retain)
	if every < 256 {
		every = 256
	}
	seq := s.ledger.Seq()
	last := s.lastCompact.Load()
	if seq < last || seq-last < every {
		return
	}
	if !s.lastCompact.CompareAndSwap(last, seq) {
		return // another settler is compacting
	}
	if err := s.compact(); err != nil {
		s.logLost("compaction", err)
	}
}

// compact rewrites the ledger as the tenants' balances plus the records of
// the jobs the store retains. The snapshot is taken under the ledger mutex,
// where the job table and the log agree (every transition moves both inside
// one Append).
func (s *Server) compact() error {
	err := s.ledger.Compact(func() []*ledger.Record { return jobRecords(s.store.snapshot()) })
	if err == nil {
		s.lastCompact.Store(s.ledger.Seq())
	}
	return err
}

// classify maps an execution error to an API error code: every typed
// fail-closed runtime error keeps its contract visible at the service
// boundary, a deadline keeps its own code, anything else is an internal
// failure. ("canceled" is not a code a run can fail with: it is the
// ledger's note for a job canceled before any run.)
func classify(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline_exceeded"
	}
	for _, e := range []error{
		runtime.ErrCommitteeBroken, runtime.ErrCommitteeDegraded,
		runtime.ErrNoSpareCommittee, runtime.ErrHandoffFailed,
		runtime.ErrNoValidInputs, runtime.ErrShardFailed,
	} {
		if errors.Is(err, e) {
			return "failed_closed"
		}
	}
	return "execution_error"
}
