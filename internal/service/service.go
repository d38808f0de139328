// Package service is arboretumd's analyst gateway: the long-lived,
// multi-tenant HTTP surface over the one-shot certify → plan → execute
// pipeline that cmd/arboretum runs per invocation. It has three parts —
// transport (handlers.go: the /v1 API of docs/SERVICE.md), a job store
// with an asynchronous executor pool (jobs.go, this file; the pool is
// internal/parallel.ForEach draining a bounded queue), and the admission
// path that welds the two to internal/ledger's durable per-tenant
// privacy-budget ledger and the durable job journal (journal.go, built on
// the same internal/wal machinery).
//
// The budget lifecycle is the service's core contract. At admission the
// query is certified (runtime.Certify) and exactly the certificate's
// (ε, δ) is reserved in the ledger — a query whose certified cost exceeds
// the tenant's remaining budget is rejected with a typed error before
// anything executes. Each admitted job then runs on its own simulated
// deployment (seeded from the server seed and the job sequence, so any
// job replays bit-for-bit) whose runtime budget equals the reservation,
// extending the runtime's fail-closed guarantee to the service boundary:
// on success the ledger commits exactly the executed certificate's spend;
// on failure — including fault-injected fail-closed runs — the
// reservation is released and the tenant spends nothing.
//
// Jobs are crash-resumable: every transition is journaled before it is
// observable, and a restarted daemon replays the journal, pairs each
// non-terminal job with its dangling ledger reservation, and re-executes
// it deterministically from the same seed — committing exactly the
// certified spend and reproducing bit-identical outputs — instead of
// dropping the work (recovery.go; docs/SERVICE.md documents the pairing
// rules). Execution is deadline-bounded (Config.JobTimeout plus a
// per-submission override): an overdue job is canceled at the runtime's
// next checkpoint, its reservation released, and its executor slot
// reclaimed. Injected daemon deaths at the job-lifecycle boundaries (the
// faults "daemon" kind) drive the chaos restart sweep in
// recovery_test.go.
//
// Per-tenant token-bucket rate limiting, a per-tenant in-flight cap, and
// a bounded queue protect the executor.
//
// Concurrency: jobs are independent by construction — each owns a private
// runtime.Deployment (a Deployment is not safe for concurrent use, so one
// is never shared), the job table, journal, and ledger serialize under
// their own locks, and all fan-out goes through internal/parallel except
// the per-job watchdog goroutine that bounds a wedged run (runJob). See
// docs/CONCURRENCY.md.
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
	// LedgerPath is the privacy-budget WAL (required). JournalPath is the
	// durable job journal (default LedgerPath + ".jobs").
	LedgerPath  string
	JournalPath string
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

	// RetainJobs caps the terminal jobs kept in memory and in the journal
	// (default 10000): past it the oldest settled jobs are evicted and
	// their status reads return a typed "expired" error.
	RetainJobs int

	// Rate/Burst are the per-tenant token bucket: Rate submissions per
	// second sustained, Burst instantly (0 disables). MaxInFlight caps a
	// tenant's queued+running jobs (0 = unlimited).
	Rate        float64
	Burst       int
	MaxInFlight int

	// FaultSpec is the default fault-injection schedule applied to every
	// job's deployment (docs/FAULTS.md); a submission may override it.
	// LedgerFaults injects simulated crashes into the ledger's WAL append
	// path (the "wal" kind); DaemonFaults injects simulated daemon deaths
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
	journal *journal
	store   *store
	limiter *tenantLimiter
	started time.Time

	crash      *faults.Plan // injected daemon deaths (Config.DaemonFaults)
	crashed    atomic.Bool  // an injected death fired: the "process" is gone
	draining   atomic.Bool  // Drain/Close began: stop claiming queued jobs
	abandoning atomic.Bool  // Drain's deadline passed: running jobs dropped

	// recovered counts the jobs re-enqueued for deterministic re-execution
	// at startup (health gauge; written before workers start).
	recovered int

	// running maps in-flight job IDs to their cancel funcs so a drain
	// deadline can abandon them.
	runMu   sync.Mutex
	running map[string]context.CancelFunc

	// lastCompact is the journal sequence at the last compaction; the
	// journal is rewritten from the job table when enough records pile up
	// past it.
	lastCompact atomic.Uint64

	// hold, when non-nil, makes executor workers block on it before each
	// dequeued job — a test hook for deterministic queue scenarios.
	hold chan struct{}

	closeOnce   sync.Once
	closeErr    error
	workersDone chan struct{}
}

// New opens the ledger and the job journal, recovers every job the journal
// shows in flight (re-enqueueing it for deterministic re-execution paired
// with its dangling reservation — see recovery.go), seeds the configured
// tenants, and starts the executor pool.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, nil)
}

// newServer is New plus the executor hold gate (nil in production; tests
// install a channel to keep dequeued jobs parked deterministically).
func newServer(cfg Config, hold chan struct{}) (*Server, error) {
	if cfg.LedgerPath == "" {
		return nil, fmt.Errorf("service: Config.LedgerPath is required")
	}
	if cfg.JournalPath == "" {
		cfg.JournalPath = cfg.LedgerPath + ".jobs"
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
	led, err := ledger.Open(cfg.LedgerPath, ledger.Options{Crash: cfg.LedgerFaults})
	if err != nil {
		return nil, err
	}
	for _, t := range cfg.Tenants {
		if err := led.EnsureTenant(t.ID, t.Epsilon, t.Delta); err != nil {
			return nil, errors.Join(err, led.Close())
		}
	}
	jn, err := openJournal(cfg.JournalPath)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("service: job journal: %w", err), led.Close())
	}
	inflight := 0
	for _, jj := range jn.jobs {
		if !jj.terminal() {
			inflight++
		}
	}
	s := &Server{
		cfg:         cfg,
		ledger:      led,
		journal:     jn,
		store:       newStore(cfg.QueueDepth, inflight, cfg.RetainJobs),
		limiter:     newTenantLimiter(cfg.Rate, cfg.Burst, nil),
		started:     time.Now(),
		crash:       cfg.DaemonFaults,
		running:     map[string]context.CancelFunc{},
		hold:        hold,
		workersDone: make(chan struct{}),
	}
	if err := s.recoverJobs(); err != nil {
		jn.close()
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
			// stops claiming: either way the skipped job stays journaled
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

// Crashed reports whether an injected daemon death has fired (chaos tests
// restart against the same ledger+journal afterwards).
func (s *Server) Crashed() bool { return s.crashed.Load() }

// Close stops admission (late submissions get 503 shutting_down), stops
// claiming queued jobs, waits for running jobs to finish, and closes the
// journal and ledger. Jobs still queued keep their journal records and
// reservations: the next startup re-enqueues and re-executes them
// deterministically. Close is idempotent; repeated calls return the first
// result.
func (s *Server) Close() error { return s.Drain(-1) }

// Drain is Close with a bounded wait: running jobs get up to timeout to
// finish (negative = forever); past it they are canceled and abandoned
// un-settled — their claims stay journaled and their reservations held, so
// the next startup re-executes them exactly like a crash. Queued jobs are
// never started once draining begins.
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
		jerr := s.journal.close()
		s.closeErr = s.ledger.Close()
		if s.closeErr == nil {
			s.closeErr = jerr
		}
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
// "daemon" fault kind): record the fault, stop executing, and close the
// journal and ledger descriptors the way the kernel would — without
// flushing anything not already durable — so a "restarted" server can
// reopen the same files and recover.
func (s *Server) die(j *Job, stage int, note string) {
	s.crash.Record(faults.Fault{
		Kind: faults.DaemonCrash, Idx: []int{int(j.seq), stage},
		Note: fmt.Sprintf("job %s/%s: %s", j.Tenant, j.ID, note),
	})
	s.crashed.Store(true)
	s.cfg.Logf("service: injected daemon crash (job %s, stage %d): %s", j.ID, stage, note)
	s.store.close()
	s.journal.kill()
	//arblint:ignore errdiscard simulated daemon crash: the abrupt teardown IS the fault being injected
	s.ledger.Close()
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
// the restart-recovery tests assert the journal+ledger pairing puts every
// such job back.
func (s *Server) execute(j *Job) {
	// Claim Queued→Running atomically: a job canceled while queued has
	// already had its reservation released and must not run, and the claim
	// bars any later cancel (the job is Running). The claim is a single
	// compare-and-swap under the store mutex — a separate check and update
	// would race a cancel landing in between (see store.claim).
	if !s.store.claim(j.ID) {
		return
	}
	seq := int(j.seq)
	if s.crash.Fires(faults.DaemonCrash, seq, 0) {
		s.die(j, 0, "crashed before journaling the claim")
		return
	}
	// Journal the claim before executing (recovered jobs whose claim was
	// already durable skip the duplicate). A claim that cannot be journaled
	// must not run: fail closed, release the hold.
	if !j.recoveredClaim {
		if err := s.journal.append(&jrec{Op: jopClaim, Job: j.ID, Tenant: j.Tenant}); err != nil {
			s.settleFailure(j, "journal_error", fmt.Errorf("journal claim: %w", err), "")
			return
		}
	}
	if s.crash.Fires(faults.DaemonCrash, seq, 1) {
		s.die(j, 1, "crashed after journaling the claim, before execution")
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
			// Drain abandoned this run: leave the claim journaled and the
			// reservation held so the next startup re-executes it.
			return
		}
		s.settleFailure(j, classify(err), err, report)
		return
	}
	if s.crash.Fires(faults.DaemonCrash, seq, 3) {
		s.die(j, 3, "crashed after the run, before the budget commit")
		return
	}
	// Commit exactly the executed certificate's spend, durably, before the
	// result becomes visible: a crash between run and commit leaves the
	// reservation dangling paired with a journaled claim, and recovery
	// re-executes — never under-counts. A recovered job whose commit was
	// already durable (skipCommit) re-earned its outputs; it must not spend
	// twice.
	if !j.skipCommit {
		if err := s.ledger.Commit(j.Tenant, j.ID, res.Certificate.Epsilon, res.Certificate.Delta); err != nil {
			s.cfg.Logf("service: commit %s/%s: %v", j.Tenant, j.ID, err)
			s.journalTerminal(&jrec{Op: jopFailed, Job: j.ID, Tenant: j.Tenant, Code: "ledger_error"})
			s.store.update(j.ID, func(j *Job) {
				j.State = JobFailed
				j.Finished = time.Now()
				j.Error = fmt.Sprintf("budget commit failed (epsilon remains charged): %v", err)
				j.ErrorCode = "ledger_error"
				j.FaultReport = report
			})
			s.maybeCompact()
			return
		}
	}
	outs := make([]float64, len(res.Outputs))
	for i, o := range res.Outputs {
		outs[i] = o.Float()
	}
	digest := resultDigest(outs, res.Accepted, res.Sampled)
	// The done record (with the result digest) becomes durable before the
	// outputs become visible.
	s.journalTerminal(&jrec{Op: jopDone, Job: j.ID, Tenant: j.Tenant, Digest: digest})
	s.store.update(j.ID, func(j *Job) {
		j.State = JobDone
		j.Finished = time.Now()
		j.SpentEpsilon = res.Certificate.Epsilon
		j.SpentDelta = res.Certificate.Delta
		j.Outputs = outs
		j.AcceptedInputs = res.Accepted
		j.SampledDevices = res.Sampled
		j.FaultReport = report
		j.ResultDigest = digest
	})
	s.maybeCompact()
}

// settleFailure releases the job's reservation, journals the failure, and
// records the terminal state — in that order, so the refund is durable
// before the failure is observable.
func (s *Server) settleFailure(j *Job, code string, err error, report string) {
	if lerr := s.ledger.Release(j.Tenant, j.ID, code); lerr != nil {
		// The release did not become durable (e.g. an injected WAL crash,
		// or a recovered job whose release predated the crash): ε stays
		// reserved and startup recovery settles it. Surface the ledger
		// failure, keep the run error.
		s.cfg.Logf("service: release %s/%s: %v", j.Tenant, j.ID, lerr)
	}
	s.journalTerminal(&jrec{Op: jopFailed, Job: j.ID, Tenant: j.Tenant, Code: code})
	s.store.update(j.ID, func(j *Job) {
		j.State = JobFailed
		j.Finished = time.Now()
		j.Error = err.Error()
		j.ErrorCode = code
		j.FaultReport = report
	})
	s.maybeCompact()
}

// journalTerminal appends a terminal record, logging (not failing) on
// error: the budget action is already durable, and at worst a restart
// re-executes the job deterministically to the same outcome.
func (s *Server) journalTerminal(r *jrec) {
	if err := s.journal.append(r); err != nil {
		s.cfg.Logf("service: journal %s %s/%s: %v", r.Op, r.Tenant, r.Job, err)
	}
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

// maybeCompact rewrites the journal from the live job table once enough
// records have piled up since the last compaction, bounding journal growth
// on a long-lived daemon (evicted jobs drop out of the rewrite entirely).
func (s *Server) maybeCompact() {
	every := uint64(4 * s.store.retain)
	if every < 256 {
		every = 256
	}
	seq := s.journal.log.Seq()
	last := s.lastCompact.Load()
	if seq < last || seq-last < every {
		return
	}
	if !s.lastCompact.CompareAndSwap(last, seq) {
		return // another settler is compacting
	}
	if err := s.journal.compact(func() []*jrec { return journalRecords(s.store.snapshot()) }); err != nil {
		s.cfg.Logf("service: journal compaction: %v", err)
		return
	}
	s.lastCompact.Store(s.journal.log.Seq())
}

// classify maps an execution error to an API error code: every typed
// fail-closed runtime error keeps its contract visible at the service
// boundary, a deadline keeps its own code, anything else is an internal
// failure.
func classify(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline_exceeded"
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
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
