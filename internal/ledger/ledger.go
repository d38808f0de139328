// Package ledger is the arboretumd gateway's one durable file
// (docs/SERVICE.md): a write-ahead log that holds every tenant's (ε, δ)
// privacy budget and, in the same records, the life of every job that draws
// on it. The paper's budget check and query authorization are one signed
// record (§5.2); across queries and restarts the ledger keeps them one
// record too, so "in what order do a job's budget and lifecycle facts become
// durable" has one answer — the order of the log:
//
//	reserve — admission, and the submission itself. Exactly the query's
//	          certified (ε, δ) is held against the tenant's balance, and the
//	          record carries what a restart needs to run the job again
//	          (source, fault spec, job sequence, timeout). A hold that would
//	          oversubscribe the balance is refused with ErrBudgetExhausted
//	          before anything is written, and nothing runs.
//	claim   — an executor took the job: queued → running.
//	commit  — the job is done: the certificate's spend becomes permanent,
//	          the hold is consumed, and the record carries the result digest.
//	          A commit with an error code instead is the charged fail-closed
//	          settlement of a job that cannot be run again.
//	release — the job failed or was canceled: the whole hold returns to the
//	          balance, and the note says why. A query that failed closed
//	          spends nothing.
//
// So a job is a linear state machine — reserve → [claim] → commit | release —
// and every prefix of the log is a consistent state: a job without a
// terminal record is in flight with its hold intact, never silently
// released, because the crash may have come after the query's DP release.
// What to do with it is the gateway's call (re-execute it deterministically,
// or charge it at the reserved amount): Open hands each replayed record to
// Options.Replay so the gateway folds its own job table, while the ledger
// keeps balances and holds, never sources. Since a hold is exactly the
// certificate's ε, a recovered balance equals the balance a crash-free run
// would have reached.
//
// Durability is internal/wal's: each record is appended and fsynced before
// it takes effect, Open takes an exclusive advisory lock (ErrLocked),
// replays, truncates a torn final line and refuses with ErrCorrupt any
// durably written record that fails validation. Compact bounds the file: it
// rewrites the log as the tenants' totals, the records of the jobs the
// gateway still retains, and one checkpoint per tenant that pins the balance
// bit-for-bit. Crash points in both write paths are simulation-injectable
// through an internal/faults plan (the "wal" kind).
//
// All methods are safe for concurrent use. Every write goes through Append
// under one mutex, so concurrent analysts can never jointly oversubscribe a
// tenant (ledger_test.go's race pass pins this), and Compact runs under the
// same mutex, so it can never lose a racing record.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"

	"arboretum/internal/faults"
	"arboretum/internal/wal"
)

// Typed failure modes. Handlers map these to API error codes, so they are
// part of the service contract (docs/SERVICE.md). The durability errors are
// the wal package's sentinels, re-exported so callers keep matching against
// ledger.ErrCorrupt and friends.
var (
	// ErrBudgetExhausted rejects a reservation that would oversubscribe the
	// tenant's remaining (ε, δ). The query must not execute.
	ErrBudgetExhausted = errors.New("ledger: privacy budget exhausted")
	// ErrNoTenant is returned for operations on an unknown tenant.
	ErrNoTenant = errors.New("ledger: unknown tenant")
	// ErrTenantExists rejects creating a tenant that already exists.
	ErrTenantExists = errors.New("ledger: tenant already exists")
	// ErrNoReservation rejects a claim, commit or release without a matching
	// outstanding reservation (including a second commit for the same job —
	// the double-spend guard, and the claim of a job canceled while queued).
	ErrNoReservation = errors.New("ledger: no such reservation")
	// ErrClaimed rejects a second claim of a job, and the cancellation of a
	// job an executor has already claimed: its vignettes may have released
	// DP noise, so its budget outcome must come from the run.
	ErrClaimed = errors.New("ledger: job already claimed")
	// ErrCorrupt means replay found a record that is syntactically broken or
	// fails its checksum before the final line. The ledger refuses to guess.
	ErrCorrupt = wal.ErrCorrupt
	// ErrCrashed means the WAL is dead — an injected process death (the
	// faults "wal" kind), a failed write, or Close: nothing more becomes
	// durable until the ledger is reopened (replayed).
	ErrCrashed = wal.ErrCrashed
	// ErrLocked means another live process holds the WAL: Open refuses
	// rather than let two daemons interleave conflicting sequence numbers.
	ErrLocked = wal.ErrLocked
)

// Op is a WAL record type.
type Op string

// The record types: a tenant's registration, the four steps of a job, and
// the balance checkpoint Compact writes.
const (
	OpCreate     Op = "create"     // tenant registered with its (ε, δ) totals
	OpReserve    Op = "reserve"    // job admitted: hold (ε, δ); carries the job's payload
	OpClaim      Op = "claim"      // job queued → running
	OpCommit     Op = "commit"     // job done (digest) or charged fail-closed (code): spend ≤ reserved
	OpRelease    Op = "release"    // job failed or canceled (note): refund the reservation
	OpCheckpoint Op = "checkpoint" // compaction: the tenant's spent/reserved/queries, absolute
)

// NoteCanceled is the release note of a cancellation. It is valid only on a
// job no executor has claimed; every other note is the error code of a run
// that failed.
const NoteCanceled = "canceled"

// Record is one WAL line. Sum covers every other field, so replay can tell
// a torn tail from a decodable-but-tampered record.
type Record struct {
	Seq    uint64  `json:"seq"`
	Op     Op      `json:"op"`
	Tenant string  `json:"tenant"`
	Job    string  `json:"job,omitempty"`
	Eps    float64 `json:"eps,omitempty"`
	Del    float64 `json:"del,omitempty"`
	Note   string  `json:"note,omitempty"`

	// The job's payload. A reserve carries what re-executes the job: its
	// source, its fault-spec override, the sequence number that seeds its
	// deployment, its deadline override in seconds. A commit carries the
	// result digest of a done job, or the error code of a job charged
	// fail-closed.
	Source  string  `json:"source,omitempty"`
	Faults  string  `json:"faults,omitempty"`
	JobSeq  uint64  `json:"job_seq,omitempty"`
	Timeout float64 `json:"timeout,omitempty"`
	Digest  string  `json:"digest,omitempty"`
	Code    string  `json:"code,omitempty"`

	// A checkpoint's Eps/Del are the tenant's spend; these are the rest of
	// its balance.
	EpsReserved float64 `json:"eps_reserved,omitempty"`
	DelReserved float64 `json:"del_reserved,omitempty"`
	Queries     int     `json:"queries,omitempty"`

	Sum string `json:"sum"`
}

// checksum binds the record fields; hex-truncated SHA-256 keeps lines short
// while torn or edited lines still fail with overwhelming probability. The
// first seven fields are the whole format of every ledger written before
// jobs lived in it, so a record without payload hashes exactly as it did
// then; %q quotes Source and Faults so multi-line query text cannot smear
// into the neighboring fields.
func (r *Record) checksum() string {
	s := fmt.Sprintf("%d|%s|%s|%s|%.17g|%.17g|%s",
		r.Seq, r.Op, r.Tenant, r.Job, r.Eps, r.Del, r.Note)
	if r.Source != "" || r.Faults != "" || r.JobSeq != 0 || r.Timeout != 0 || r.Digest != "" || r.Code != "" ||
		r.EpsReserved != 0 || r.DelReserved != 0 || r.Queries != 0 {
		s += fmt.Sprintf("|%q|%q|%d|%.17g|%s|%s|%.17g|%.17g|%d",
			r.Source, r.Faults, r.JobSeq, r.Timeout, r.Digest, r.Code,
			r.EpsReserved, r.DelReserved, r.Queries)
	}
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// The wal.Record plumbing.

// WALSeq returns the record's sequence number.
func (r *Record) WALSeq() uint64 { return r.Seq }

// SetWALSeq assigns the record's sequence number.
func (r *Record) SetWALSeq(s uint64) { r.Seq = s }

// WALSum returns the stored checksum.
func (r *Record) WALSum() string { return r.Sum }

// SetWALSum assigns the stored checksum.
func (r *Record) SetWALSum(s string) { r.Sum = s }

// WALChecksum computes the canonical checksum.
func (r *Record) WALChecksum() string { return r.checksum() }

// WALDesc labels the record in injected-crash notes.
func (r *Record) WALDesc() string { return fmt.Sprintf("%s %s/%s", r.Op, r.Tenant, r.Job) }

// key identifies the record's job: job ids are unique per tenant.
func (r *Record) key() string { return r.Tenant + "\x00" + r.Job }

// Balance is one tenant's budget state. Available ε is
// Total − Spent − Reserved; δ likewise.
type Balance struct {
	TenantID    string  `json:"tenant"`
	EpsTotal    float64 `json:"eps_total"`
	DelTotal    float64 `json:"del_total"`
	EpsSpent    float64 `json:"eps_spent"`
	DelSpent    float64 `json:"del_spent"`
	EpsReserved float64 `json:"eps_reserved"`
	DelReserved float64 `json:"del_reserved"`
	Queries     int     `json:"queries"` // committed queries
}

// EpsAvailable is the ε a new reservation may draw from.
func (b Balance) EpsAvailable() float64 { return b.EpsTotal - b.EpsSpent - b.EpsReserved }

// DelAvailable is the δ a new reservation may draw from.
func (b Balance) DelAvailable() float64 { return b.DelTotal - b.DelSpent - b.DelReserved }

// hold is one job in flight: its reservation, and whether an executor has
// claimed it.
type hold struct {
	eps, del float64
	claimed  bool
}

// Options configures Open.
type Options struct {
	// Crash injects simulated process deaths into the WAL's write paths (the
	// faults "wal" kind, coordinates (record sequence, stage)); nil injects
	// nothing. Used by the crash-recovery tests and chaos-style service
	// tests; a production daemon leaves it nil.
	Crash *faults.Plan
	// Replay, when set, receives every record Open replays, in log order,
	// after the ledger has applied it — so it sees only sequences the
	// ledger accepts. The gateway folds its job table from it.
	Replay func(*Record)
}

// Ledger is a durable privacy-budget ledger. Create one with Open.
type Ledger struct {
	mu       sync.Mutex
	log      *wal.Log[*Record]
	tenants  map[string]*Balance
	reserved map[string]hold // jobs in flight, by Record.key
	replay   func(*Record)   // Options.Replay while Open replays, nil after
}

// Open opens (creating if absent) the ledger at path, takes an exclusive
// advisory lock on it (ErrLocked when another process holds it), and
// replays its WAL. A torn final line — unterminated or not decodable as a
// record — is truncated; any durably written record that fails validation
// fails with ErrCorrupt.
func Open(path string, opts Options) (*Ledger, error) {
	l := &Ledger{
		tenants:  map[string]*Balance{},
		reserved: map[string]hold{},
		replay:   opts.Replay,
	}
	log, err := wal.Open(path, func() *Record { return new(Record) }, l.apply,
		wal.Options{Crash: opts.Crash})
	if err != nil {
		return nil, err
	}
	l.log = log
	l.replay = nil
	return l, nil
}

// apply folds one validated record into the in-memory state. It runs under
// the wal mutex (replay at Open, then every durable append), and it is the
// grammar of the log: a sequence it refuses is corruption.
func (l *Ledger) apply(r *Record) error {
	key := r.key()
	b, known := l.tenants[r.Tenant]
	h, held := l.reserved[key]
	held = held && known // a crafted tenant id could alias another job's key
	switch {
	case r.Op == OpCreate && !known:
		l.tenants[r.Tenant] = &Balance{TenantID: r.Tenant, EpsTotal: r.Eps, DelTotal: r.Del}
	case r.Op == OpReserve && known && !held:
		b.EpsReserved += r.Eps
		b.DelReserved += r.Del
		l.reserved[key] = hold{eps: r.Eps, del: r.Del}
	case r.Op == OpClaim && held && !h.claimed:
		h.claimed = true
		l.reserved[key] = h
	case r.Op == OpCommit && held:
		b.EpsReserved -= h.eps
		b.DelReserved -= h.del
		b.EpsSpent += r.Eps
		b.DelSpent += r.Del
		b.Queries++
		delete(l.reserved, key)
	case r.Op == OpRelease && held && !(h.claimed && r.Note == NoteCanceled):
		b.EpsReserved -= h.eps
		b.DelReserved -= h.del
		delete(l.reserved, key)
	case r.Op == OpCheckpoint && known:
		b.EpsSpent, b.DelSpent = r.Eps, r.Del
		b.EpsReserved, b.DelReserved = r.EpsReserved, r.DelReserved
		b.Queries = r.Queries
	default:
		return fmt.Errorf("%s does not follow from the log before it", r.WALDesc())
	}
	if l.replay != nil {
		l.replay(r)
	}
	return nil
}

// check refuses, with the typed errors of the service contract and before
// anything is written, a record the current state does not admit.
func (l *Ledger) check(r *Record) error {
	b, known := l.tenants[r.Tenant]
	h, held := l.reserved[r.key()]
	switch r.Op {
	case OpCreate:
		if r.Tenant == "" || strings.ContainsAny(r.Tenant, "\x00\n") {
			return fmt.Errorf("ledger: invalid tenant id %q", r.Tenant)
		}
		if r.Eps <= 0 || r.Del < 0 {
			return fmt.Errorf("ledger: invalid budget ε=%g δ=%g for tenant %q", r.Eps, r.Del, r.Tenant)
		}
		if known {
			return fmt.Errorf("%w: %q", ErrTenantExists, r.Tenant)
		}
		return nil
	case OpReserve:
		if r.Eps <= 0 || r.Del < 0 {
			return fmt.Errorf("ledger: invalid reservation ε=%g δ=%g", r.Eps, r.Del)
		}
		if !known {
			return fmt.Errorf("%w: %q", ErrNoTenant, r.Tenant)
		}
		if held {
			return fmt.Errorf("ledger: job %q already has a reservation", r.Job)
		}
		if r.Eps > b.EpsAvailable()+slack(b.EpsTotal) || r.Del > b.DelAvailable()+slack(b.DelTotal) {
			return fmt.Errorf("%w: tenant %q needs ε=%g, has %g of %g (%g spent, %g reserved)",
				ErrBudgetExhausted, r.Tenant, r.Eps, b.EpsAvailable(), b.EpsTotal, b.EpsSpent, b.EpsReserved)
		}
		return nil
	case OpClaim, OpCommit, OpRelease:
		if !held {
			return fmt.Errorf("%w: %q/%q", ErrNoReservation, r.Tenant, r.Job)
		}
		if h.claimed && (r.Op == OpClaim || r.Op == OpRelease && r.Note == NoteCanceled) {
			return fmt.Errorf("%w: %q/%q", ErrClaimed, r.Tenant, r.Job)
		}
		// Committing more than was reserved is refused — the reservation is
		// the certified worst case, so an overrun means the execution
		// disagreed with the certificate.
		if r.Op == OpCommit && (r.Eps > h.eps+slack(h.eps) || r.Del > h.del+slack(h.del)) {
			return fmt.Errorf("ledger: commit ε=%g δ=%g exceeds reservation ε=%g δ=%g for %q/%q",
				r.Eps, r.Del, h.eps, h.del, r.Tenant, r.Job)
		}
		return nil
	default:
		return fmt.Errorf("ledger: cannot append a %q record", r.Op)
	}
}

// slack absorbs float64 rounding when a hold exactly drains a balance (the
// compared values are sums of certificate terms). It scales with the
// quantity being compared so that δ budgets (~1e-6) get a tolerance of a
// few thousand ulps, not a fixed absolute slack that would permit genuine
// oversubscription at δ's magnitude.
func slack(scale float64) float64 { return scale * 1e-12 }

// Append is the ledger's one write path. It checks r against the current
// state (typed refusals, nothing written), appends it durably, applies it,
// and — still holding the ledger mutex — calls applied, if non-nil. The
// gateway moves its job table inside applied, which is what makes a record
// and the state it implies one step as far as Compact can see.
func (l *Ledger) Append(r *Record, applied func()) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.check(r); err != nil {
		return err
	}
	if err := l.log.Append(r); err != nil {
		return err
	}
	if applied != nil {
		applied()
	}
	return nil
}

// CreateTenant registers a tenant with its lifetime (ε, δ) allowance.
func (l *Ledger) CreateTenant(tenant string, eps, del float64) error {
	return l.Append(&Record{Op: OpCreate, Tenant: tenant, Eps: eps, Del: del}, nil)
}

// EnsureTenant creates the tenant if absent; an existing tenant keeps its
// recorded allowance and history (the daemon's -tenants flag is idempotent
// across restarts).
func (l *Ledger) EnsureTenant(tenant string, eps, del float64) error {
	err := l.CreateTenant(tenant, eps, del)
	if errors.Is(err, ErrTenantExists) {
		return nil
	}
	return err
}

// Reserve holds (eps, del) of the tenant's budget for a job, with no
// payload. It fails with ErrBudgetExhausted — before anything executes —
// when the hold would oversubscribe the balance, and with ErrNoTenant for
// an unknown tenant.
func (l *Ledger) Reserve(tenant, job string, eps, del float64) error {
	return l.Append(&Record{Op: OpReserve, Tenant: tenant, Job: job, Eps: eps, Del: del}, nil)
}

// Commit makes exactly (eps, del) of the job's reservation permanent and
// refunds the remainder.
func (l *Ledger) Commit(tenant, job string, eps, del float64) error {
	return l.Append(&Record{Op: OpCommit, Tenant: tenant, Job: job, Eps: eps, Del: del}, nil)
}

// Compact atomically rewrites the WAL as what the current state needs and
// no more: each tenant's create record, the records retained returns — the
// gateway's retained jobs, each as reserve [claim] [commit | release] — and
// one checkpoint per tenant that sets its balance absolutely, so every
// Balance is the same float64 bits before and after however many settled
// jobs dropped out. retained runs under the ledger mutex (no append can
// slip between its snapshot and the rewrite) and must leave exactly the
// ledger's holds in flight; anything else would lose a job, and is refused.
func (l *Ledger) Compact(retained func() []*Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ids := make([]string, 0, len(l.tenants))
	for id := range l.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	jobs := retained()
	recs := make([]*Record, 0, 2*len(ids)+len(jobs))
	for _, id := range ids {
		b := l.tenants[id]
		recs = append(recs, &Record{Op: OpCreate, Tenant: id, Eps: b.EpsTotal, Del: b.DelTotal})
	}
	open := map[string]hold{}
	for _, r := range jobs {
		key := r.key()
		h, held := open[key]
		switch {
		case r.Op == OpReserve && !held && l.tenants[r.Tenant] != nil:
			open[key] = hold{eps: r.Eps, del: r.Del}
		case r.Op == OpClaim && held && !h.claimed:
			h.claimed = true
			open[key] = h
		case r.Op == OpCommit && held, r.Op == OpRelease && held && !(h.claimed && r.Note == NoteCanceled):
			delete(open, key)
		default:
			return fmt.Errorf("ledger: compact: %s does not follow from the retained records before it", r.WALDesc())
		}
	}
	if !maps.Equal(open, l.reserved) {
		return fmt.Errorf("ledger: compact: the retained records leave %d jobs in flight, the ledger holds %d",
			len(open), len(l.reserved))
	}
	recs = append(recs, jobs...)
	for _, id := range ids {
		b := l.tenants[id]
		recs = append(recs, &Record{
			Op: OpCheckpoint, Tenant: id, Eps: b.EpsSpent, Del: b.DelSpent,
			EpsReserved: b.EpsReserved, DelReserved: b.DelReserved, Queries: b.Queries,
		})
	}
	return l.log.Rewrite(recs)
}

// Balance returns a copy of the tenant's budget state.
func (l *Ledger) Balance(tenant string) (Balance, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.tenants[tenant]
	if !ok {
		return Balance{}, false
	}
	return *b, true
}

// Tenants returns every tenant's balance, sorted by tenant id.
func (l *Ledger) Tenants() []Balance {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Balance, 0, len(l.tenants))
	for _, b := range l.tenants {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TenantID < out[j].TenantID })
	return out
}

// Path returns the WAL file path.
func (l *Ledger) Path() string { return l.log.Path() }

// Seq returns the sequence number of the last durable record (Compact
// renumbers from 1, so it can go down).
func (l *Ledger) Seq() uint64 { return l.log.Seq() }

// Size returns the byte length of the durable WAL.
func (l *Ledger) Size() int64 { return l.log.Size() }

// Close flushes and closes the WAL file. The ledger must not be used after.
func (l *Ledger) Close() error { return l.log.Close() }
