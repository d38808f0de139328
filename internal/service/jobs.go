package service

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"
)

// JobState is a job's position in the queued → running → terminal lifecycle.
type JobState string

// The job states. Done, Failed, and Canceled are terminal.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Job is one analyst query moving through the gateway. The exported fields
// are the status-endpoint view; Outputs and FaultReport are additionally
// exposed by the result endpoint once the job is terminal.
type Job struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`

	// Epsilon and Delta are the certified worst case reserved at admission;
	// SpentEpsilon/SpentDelta are the committed spend (zero unless Done).
	Epsilon      float64 `json:"epsilon"`
	Delta        float64 `json:"delta"`
	SpentEpsilon float64 `json:"spent_epsilon"`
	SpentDelta   float64 `json:"spent_delta"`

	// Started and Finished are the zero time until the job reaches the
	// corresponding state.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`

	// Error and ErrorCode are set on Failed jobs (docs/SERVICE.md's code
	// table); a fail-closed runtime error carries code "failed_closed", a
	// job canceled by its deadline "deadline_exceeded".
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`

	// TimeoutSeconds is the per-submission deadline override (0 = the
	// server's Config.JobTimeout).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	// Recovered marks a job replayed from the ledger after a restart. A
	// recovered terminal job keeps its state and ResultDigest but not its
	// outputs (those died with the old process unless re-executed).
	Recovered bool `json:"recovered,omitempty"`
	// ResultDigest commits to the released outputs of a Done job; a
	// deterministic re-execution reproduces it bit-for-bit.
	ResultDigest string `json:"result_digest,omitempty"`

	Outputs        []float64 `json:"outputs,omitempty"`
	AcceptedInputs int       `json:"accepted_inputs,omitempty"`
	SampledDevices int       `json:"sampled_devices,omitempty"`
	FaultReport    string    `json:"fault_report,omitempty"`

	source string
	faults string // per-job fault spec ("" = server default)
	seq    uint64 // submission sequence; seeds the job's deployment

	// claimed records that the job's claim is durable. It outlives the
	// process: a job recovered after its claim is queued again, but the
	// executor must not append a second one.
	claimed bool
}

// terminal reports whether the job has settled.
func (j *Job) terminal() bool {
	return j.State == JobDone || j.State == JobFailed || j.State == JobCanceled
}

// store is the in-memory job table plus the work queue the executor pool
// drains. Terminal jobs past the retention cap are evicted oldest-first
// (their IDs are remembered so status reads return a typed "expired" error
// instead of 404); the durable history is the ledger, and every lifecycle
// transition here follows its record there (see ledger.Append).
type store struct {
	mu     sync.Mutex
	jobs   map[string]*Job
	seq    uint64
	closed bool // set by close; reserveSlot refuses afterwards
	// queue feeds the executor pool. A submission reserves its slot before
	// its reservation is written (a full queue is a 503 that writes
	// nothing), so the enqueue that follows the durable record cannot
	// block; pending counts the slots reserved but not yet filled.
	queue   chan *Job
	pending int

	// retain caps the terminal jobs kept in the table; terminalOrder is the
	// eviction queue (oldest settled first).
	retain        int
	terminalOrder []string
	// evicted remembers evicted job IDs (capped FIFO) so their status reads
	// fail with "expired", not "no such job".
	evicted      map[string]bool
	evictedOrder []string
}

// defaultRetainJobs is Config.RetainJobs's default: the terminal-job window
// a long-lived daemon keeps queryable in memory.
const defaultRetainJobs = 10000

// newStore sizes the queue for depth new submissions plus room to re-enqueue
// recovered jobs at startup (recovery must never be refused by its own
// backpressure limit).
func newStore(depth, recovered, retain int) *store {
	if depth <= 0 {
		depth = 64
	}
	if retain <= 0 {
		retain = defaultRetainJobs
	}
	return &store{
		jobs:    map[string]*Job{},
		queue:   make(chan *Job, depth+recovered),
		retain:  retain,
		evicted: map[string]bool{},
	}
}

// newJobID returns a 16-hex-digit random job id.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("service: job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// nextSeq reserves the next job sequence number (the deployment seed
// offset). It is taken before the reserve record is written so the log
// carries the same seq the execution will use.
func (st *store) nextSeq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	return st.seq
}

// reserveSlot holds one queue slot for a submission about to be made
// durable, or refuses it — when the queue is full or admission has stopped —
// while refusing still costs nothing.
func (st *store) reserveSlot() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errShutdown
	}
	if len(st.queue)+st.pending >= cap(st.queue) {
		return errQueueFull
	}
	st.pending++
	return nil
}

// releaseSlot returns the slot of a submission the ledger refused.
func (st *store) releaseSlot() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pending--
}

// add registers a queued job (whose seq was assigned by nextSeq and whose
// reservation is durable) and enqueues it into its reserved slot. A job
// admitted as the store closed is registered but not enqueued: it is as
// durable as any other queued job, and the next start runs it.
func (st *store) add(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.pending--
	j.State = JobQueued
	st.jobs[j.ID] = j
	if !st.closed {
		st.queue <- j
	}
}

// restore inserts a job replayed from the ledger: non-terminal jobs re-enter
// the queue (capacity was sized for them), terminal jobs are registered
// directly. The store's sequence counter advances past every restored seq
// so new submissions never reuse a seed offset.
func (st *store) restore(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.seq > st.seq {
		st.seq = j.seq
	}
	st.jobs[j.ID] = j
	if j.terminal() {
		st.markTerminalLocked(j.ID)
	} else {
		j.State = JobQueued
		st.queue <- j
	}
}

// close stops admission and closes the queue so the executor pool drains
// and exits. Taking the mutex serializes it with add's send: a handler
// racing shutdown never sends on a closed channel.
func (st *store) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	close(st.queue)
}

// isClosed reports whether admission has stopped.
func (st *store) isClosed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// get returns a snapshot of the job (copied under the lock, so handlers
// never see a half-updated job while the executor mutates it). expired
// reports that the job existed but was evicted past the retention cap.
func (st *store) get(id string) (j Job, ok, expired bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	p, ok := st.jobs[id]
	if !ok {
		return Job{}, false, st.evicted[id]
	}
	return *p, true, false
}

// byTenant returns snapshots of the tenant's jobs, newest first.
func (st *store) byTenant(tenant string) []Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []Job
	for _, j := range st.jobs {
		if j.Tenant == tenant {
			out = append(out, *j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].seq > out[k].seq })
	return out
}

// snapshot returns every job, in submission order — the source of the
// records ledger compaction keeps.
func (st *store) snapshot() []Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Job, 0, len(st.jobs))
	for _, j := range st.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].seq < out[k].seq })
	return out
}

// counts tallies jobs by state (the health endpoint's queue gauge).
func (st *store) counts() map[JobState]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := map[JobState]int{}
	for _, j := range st.jobs {
		out[j.State]++
	}
	return out
}

// inFlight counts the tenant's non-terminal jobs (the per-tenant
// concurrency cap consulted at admission).
func (st *store) inFlight(tenant string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, j := range st.jobs {
		if j.Tenant == tenant && (j.State == JobQueued || j.State == JobRunning) {
			n++
		}
	}
	return n
}

// inFlightByTenant tallies non-terminal jobs per tenant (the health
// endpoint's saturation view).
func (st *store) inFlightByTenant() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := map[string]int{}
	for _, j := range st.jobs {
		if j.State == JobQueued || j.State == JobRunning {
			out[j.Tenant]++
		}
	}
	return out
}

// cancel transitions a queued job to Canceled. Running jobs are not
// cancelable: their committee vignettes may already have released DP noise,
// so the budget outcome must come from the run itself. The executor skips
// canceled jobs when it dequeues them. The handler calls it once the
// canceling release is durable — the ledger, which refuses to cancel a
// claimed job, has already decided the race with the executor.
func (st *store) cancel(id string) (Job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return Job{}, errNotCancelable
	}
	if j.State != JobQueued {
		return *j, errNotCancelable
	}
	j.State = JobCanceled
	j.Finished = time.Now()
	st.markTerminalLocked(id)
	return *j, nil
}

// claim atomically transitions a dequeued job from Queued to Running. It
// reports false when the job is no longer queued, i.e. it was canceled and
// its reservation already released. Claim and cancel serialize under the
// store mutex, so at most one of a racing pair wins here too; the executor
// calls it once the claim record is durable.
func (st *store) claim(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok || j.State != JobQueued {
		return false
	}
	j.State = JobRunning
	j.Started = time.Now()
	j.claimed = true
	return true
}

// update mutates a job under the store lock. A transition into a terminal
// state enters the job into the eviction queue (and may evict the oldest
// terminal job past the retention cap).
func (st *store) update(id string, fn func(*Job)) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return
	}
	wasTerminal := j.terminal()
	fn(j)
	if j.terminal() && !wasTerminal {
		st.markTerminalLocked(id)
	}
}

// markTerminalLocked appends the job to the eviction queue and evicts past
// the retention cap. Caller holds st.mu.
func (st *store) markTerminalLocked(id string) {
	st.terminalOrder = append(st.terminalOrder, id)
	for len(st.terminalOrder) > st.retain {
		victim := st.terminalOrder[0]
		st.terminalOrder = st.terminalOrder[1:]
		delete(st.jobs, victim)
		if !st.evicted[victim] {
			st.evicted[victim] = true
			st.evictedOrder = append(st.evictedOrder, victim)
		}
		// The expired-ID memory is itself capped (at the retention cap, at
		// least 1024): beyond it, ancient jobs degrade from "expired" to
		// "no such job".
		limit := st.retain
		if limit < 1024 {
			limit = 1024
		}
		for len(st.evictedOrder) > limit {
			delete(st.evicted, st.evictedOrder[0])
			st.evictedOrder = st.evictedOrder[1:]
		}
	}
}

// evictedCount returns how many job IDs are remembered as expired.
func (st *store) evictedCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.evictedOrder)
}

// resultDigest is the short commitment to a job's released outputs that its
// commit record carries: a restarted daemon re-executing the job must
// reproduce it bit-for-bit (the determinism guarantee the recovery tests
// pin).
func resultDigest(outputs []float64, accepted, sampled int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d", accepted, sampled)
	for _, o := range outputs {
		fmt.Fprintf(h, "|%.17g", o)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
