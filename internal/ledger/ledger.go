// Package ledger is the durable per-tenant privacy-budget ledger behind the
// arboretumd analyst gateway (docs/SERVICE.md): every tenant (analyst) holds
// an (ε, δ) allowance, and every query moves through a three-step budget
// lifecycle that extends the runtime's single-query fail-closed contract
// across queries and process restarts:
//
//	reserve — at admission, before anything executes, the query's certified
//	          (ε, δ) is held against the tenant's balance; a reservation
//	          that would oversubscribe the balance fails with
//	          ErrBudgetExhausted and nothing runs.
//	commit  — on success, exactly the certificate's spend becomes permanent
//	          and the reservation is consumed.
//	release — on failure or cancellation, the reservation returns to the
//	          balance; a query that failed closed spends nothing.
//
// Durability is a checksummed JSON-lines write-ahead log built on
// internal/wal: each state transition is one record appended and fsynced
// before the transition takes effect, so the on-disk ledger is never behind
// the in-memory one. Open takes an exclusive advisory lock on the WAL
// (ErrLocked), replays it, truncates a torn final line, and refuses with
// ErrCorrupt any durably written record that fails validation — the rules
// documented in the wal package, shared with the gateway's job journal.
// Reservations that were in flight when the process died are *kept held* by
// replay — never silently released, because the crash may have happened
// after the query's DP release but before the commit record became durable.
// The daemon pairs them (Reservations) at startup with its own job journal
// and either re-executes the job deterministically, committing exactly the
// certified spend, or settles fail-closed with a Commit at the full reserved
// amount: since a reservation is exactly the certificate's ε, the recovered
// balance equals the balance a crash-free run would have reached, and spend
// is never under-counted (never-double-spend's dual).
// Crash points in the append path are simulation-injectable through an
// internal/faults plan (the "wal" kind), which is how the crash-recovery
// tests and the chaos-style service tests drive mid-commit failures
// deterministically.
//
// All methods are safe for concurrent use; admission-time reservations are
// serialized under one mutex, so concurrent analysts can never jointly
// oversubscribe a tenant (ledger_test.go's race pass pins this).
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
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
	// ErrNoReservation is returned by Commit/Release without a matching
	// outstanding reservation (including a second Commit for the same job —
	// the double-spend guard).
	ErrNoReservation = errors.New("ledger: no such reservation")
	// ErrCorrupt means replay found a record that is syntactically broken or
	// fails its checksum before the final line. The ledger refuses to guess.
	ErrCorrupt = wal.ErrCorrupt
	// ErrCrashed is the simulated process death injected by a faults plan
	// ("wal" kind): the ledger is poisoned exactly as if the daemon had died
	// mid-append and must be reopened (replayed) before further use.
	ErrCrashed = wal.ErrCrashed
	// ErrLocked means another live process holds the WAL: Open refuses
	// rather than let two daemons interleave conflicting sequence numbers.
	ErrLocked = wal.ErrLocked
)

// Op is a WAL record type.
type Op string

// The four record types of the budget lifecycle.
const (
	OpCreate  Op = "create"  // tenant registered with its (ε, δ) totals
	OpReserve Op = "reserve" // job admission: hold (ε, δ)
	OpCommit  Op = "commit"  // job success: spend ≤ reserved, refund the rest
	OpRelease Op = "release" // job failure/cancel: refund the reservation
)

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
	Sum    string  `json:"sum"`
}

// checksum binds the record fields; hex-truncated SHA-256 keeps lines short
// while torn or edited lines still fail with overwhelming probability. It
// predates internal/wal and is the on-disk format of every existing ledger,
// so it must not change.
func (r *Record) checksum() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%s|%s|%.17g|%.17g|%s",
		r.Seq, r.Op, r.Tenant, r.Job, r.Eps, r.Del, r.Note)))
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

// reservation is one outstanding hold, keyed by (tenant, job).
type reservation struct {
	eps, del float64
}

// Reservation is one outstanding hold as reported by Reservations: the
// startup-recovery view the service pairs against its job journal.
type Reservation struct {
	Tenant, Job string
	Eps, Del    float64
}

// Options configures Open.
type Options struct {
	// Crash injects simulated process deaths into the WAL append path (the
	// faults "wal" kind, coordinates (record sequence, stage)); nil injects
	// nothing. Used by the crash-recovery tests and chaos-style service
	// tests; a production daemon leaves it nil.
	Crash *faults.Plan
}

// Ledger is a durable privacy-budget ledger. Create one with Open.
type Ledger struct {
	mu       sync.Mutex
	log      *wal.Log[*Record]
	tenants  map[string]*Balance
	reserved map[string]reservation // key: tenant + "\x00" + job
	// committed remembers every (tenant, job) that has a durable commit —
	// the startup-recovery signal that a crash fell between the budget
	// commit and the job journal's terminal record (docs/SERVICE.md).
	committed map[string]bool
}

// Open opens (creating if absent) the ledger at path, takes an exclusive
// advisory lock on it (ErrLocked when another process holds it), and
// replays its WAL. A torn final line — unterminated or not decodable as a
// record — is truncated; any durably written record that fails validation
// fails with ErrCorrupt.
func Open(path string, opts Options) (*Ledger, error) {
	l := &Ledger{
		tenants:   map[string]*Balance{},
		reserved:  map[string]reservation{},
		committed: map[string]bool{},
	}
	log, err := wal.Open(path, func() *Record { return new(Record) }, l.apply,
		wal.Options{Crash: opts.Crash, CrashKind: faults.WALCrash})
	if err != nil {
		return nil, err
	}
	l.log = log
	return l, nil
}

// apply folds one validated record into the in-memory state. It runs under
// the wal mutex (replay at Open, then every durable append).
func (l *Ledger) apply(r *Record) error {
	key := r.Tenant + "\x00" + r.Job
	switch r.Op {
	case OpCreate:
		if _, ok := l.tenants[r.Tenant]; ok {
			return fmt.Errorf("duplicate create for tenant %q", r.Tenant)
		}
		l.tenants[r.Tenant] = &Balance{TenantID: r.Tenant, EpsTotal: r.Eps, DelTotal: r.Del}
	case OpReserve:
		b, ok := l.tenants[r.Tenant]
		if !ok {
			return fmt.Errorf("reserve for unknown tenant %q", r.Tenant)
		}
		if _, dup := l.reserved[key]; dup {
			return fmt.Errorf("duplicate reservation %q/%q", r.Tenant, r.Job)
		}
		b.EpsReserved += r.Eps
		b.DelReserved += r.Del
		l.reserved[key] = reservation{eps: r.Eps, del: r.Del}
	case OpCommit:
		b, ok := l.tenants[r.Tenant]
		res, held := l.reserved[key]
		if !ok || !held {
			return fmt.Errorf("commit without reservation %q/%q", r.Tenant, r.Job)
		}
		b.EpsReserved -= res.eps
		b.DelReserved -= res.del
		b.EpsSpent += r.Eps
		b.DelSpent += r.Del
		b.Queries++
		delete(l.reserved, key)
		l.committed[key] = true
	case OpRelease:
		b, ok := l.tenants[r.Tenant]
		res, held := l.reserved[key]
		if !ok || !held {
			return fmt.Errorf("release without reservation %q/%q", r.Tenant, r.Job)
		}
		b.EpsReserved -= res.eps
		b.DelReserved -= res.del
		delete(l.reserved, key)
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	return nil
}

// CreateTenant registers a tenant with its lifetime (ε, δ) allowance.
func (l *Ledger) CreateTenant(tenant string, eps, del float64) error {
	if tenant == "" || strings.ContainsAny(tenant, "\x00\n") {
		return fmt.Errorf("ledger: invalid tenant id %q", tenant)
	}
	if eps <= 0 || del < 0 {
		return fmt.Errorf("ledger: invalid budget ε=%g δ=%g for tenant %q", eps, del, tenant)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.tenants[tenant]; ok {
		return fmt.Errorf("%w: %q", ErrTenantExists, tenant)
	}
	return l.log.Append(&Record{Op: OpCreate, Tenant: tenant, Eps: eps, Del: del})
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

// Reserve holds (eps, del) of the tenant's budget for a job at admission.
// It fails with ErrBudgetExhausted — before anything executes — when the
// hold would oversubscribe the balance, and with ErrNoTenant for an unknown
// tenant. Reservations are serialized, so concurrent Reserve calls can
// never jointly exceed the balance.
func (l *Ledger) Reserve(tenant, job string, eps, del float64) error {
	if eps <= 0 || del < 0 {
		return fmt.Errorf("ledger: invalid reservation ε=%g δ=%g", eps, del)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.tenants[tenant]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTenant, tenant)
	}
	if _, dup := l.reserved[tenant+"\x00"+job]; dup {
		return fmt.Errorf("ledger: job %q already has a reservation", job)
	}
	if eps > b.EpsAvailable()+slack(b.EpsTotal) || del > b.DelAvailable()+slack(b.DelTotal) {
		return fmt.Errorf("%w: tenant %q needs ε=%g, has %g of %g (%g spent, %g reserved)",
			ErrBudgetExhausted, tenant, eps, b.EpsAvailable(), b.EpsTotal, b.EpsSpent, b.EpsReserved)
	}
	return l.log.Append(&Record{Op: OpReserve, Tenant: tenant, Job: job, Eps: eps, Del: del})
}

// slack absorbs float64 rounding when a hold exactly drains a balance (the
// compared values are sums of certificate terms). It scales with the
// quantity being compared so that δ budgets (~1e-6) get a tolerance of a
// few thousand ulps, not a fixed absolute slack that would permit genuine
// oversubscription at δ's magnitude.
func slack(scale float64) float64 { return scale * 1e-12 }

// Commit makes exactly (eps, del) of the job's reservation permanent and
// refunds the remainder. Committing more than was reserved is refused — the
// reservation is the certified worst case, so an overrun means the
// execution disagreed with the certificate.
func (l *Ledger) Commit(tenant, job string, eps, del float64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	res, ok := l.reserved[tenant+"\x00"+job]
	if !ok {
		return fmt.Errorf("%w: %q/%q", ErrNoReservation, tenant, job)
	}
	if eps > res.eps+slack(res.eps) || del > res.del+slack(res.del) {
		return fmt.Errorf("ledger: commit ε=%g δ=%g exceeds reservation ε=%g δ=%g for %q/%q",
			eps, del, res.eps, res.del, tenant, job)
	}
	return l.log.Append(&Record{Op: OpCommit, Tenant: tenant, Job: job, Eps: eps, Del: del})
}

// Release returns the job's whole reservation to the tenant's balance.
func (l *Ledger) Release(tenant, job string, note string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.reserved[tenant+"\x00"+job]; !ok {
		return fmt.Errorf("%w: %q/%q", ErrNoReservation, tenant, job)
	}
	return l.log.Append(&Record{Op: OpRelease, Tenant: tenant, Job: job, Note: note})
}

// Reservations returns the outstanding holds, sorted by (tenant, job).
// Startup recovery pairs each with its journaled job; afterwards, a
// non-empty result means those jobs are currently queued or running.
func (l *Ledger) Reservations() []Reservation {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Reservation, 0, len(l.reserved))
	for key, res := range l.reserved {
		tenant, job, _ := strings.Cut(key, "\x00")
		out = append(out, Reservation{Tenant: tenant, Job: job, Eps: res.eps, Del: res.del})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Job < out[j].Job
	})
	return out
}

// Reserved reports whether the job holds an outstanding reservation.
func (l *Ledger) Reserved(tenant, job string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.reserved[tenant+"\x00"+job]
	return ok
}

// Committed reports whether the job has a durable commit record — the
// recovery signal that a crash fell after the budget commit but before the
// job's own terminal record became durable.
func (l *Ledger) Committed(tenant, job string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed[tenant+"\x00"+job]
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

// Seq returns the sequence number of the last durable record.
func (l *Ledger) Seq() uint64 { return l.log.Seq() }

// Close flushes and closes the WAL file. The ledger must not be used after.
func (l *Ledger) Close() error { return l.log.Close() }
