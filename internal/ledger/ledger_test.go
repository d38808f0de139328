package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"arboretum/internal/faults"
	"arboretum/internal/parallel"
)

// openT opens a ledger in a temp dir and registers cleanup.
func openT(t *testing.T, path string, opts Options) *Ledger {
	t.Helper()
	l, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// release appends a release record the way the gateway does.
func release(l *Ledger, tenant, job, note string) error {
	return l.Append(&Record{Op: OpRelease, Tenant: tenant, Job: job, Note: note}, nil)
}

func wantBalance(t *testing.T, l *Ledger, tenant string, spent, reserved float64, queries int) {
	t.Helper()
	b, ok := l.Balance(tenant)
	if !ok {
		t.Fatalf("tenant %q missing", tenant)
	}
	if math.Abs(b.EpsSpent-spent) > 1e-12 || math.Abs(b.EpsReserved-reserved) > 1e-12 || b.Queries != queries {
		t.Fatalf("%s balance = spent %g reserved %g queries %d, want %g/%g/%d",
			tenant, b.EpsSpent, b.EpsReserved, b.Queries, spent, reserved, queries)
	}
}

func TestLifecycleAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTenant("bob", 3, 1e-6); err != nil {
		t.Fatal(err)
	}
	// alice: one committed query (exact spend), one released.
	if err := l.Reserve("alice", "j1", 1.5, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("alice", "j1", 1.5, 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j2", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := release(l, "alice", "j2", "failed closed"); err != nil {
		t.Fatal(err)
	}
	// bob: a reservation committed below the reserved worst case refunds
	// the difference.
	if err := l.Reserve("bob", "j3", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("bob", "j3", 0.5, 0); err != nil {
		t.Fatal(err)
	}
	wantBalance(t, l, "alice", 1.5, 0, 1)
	wantBalance(t, l, "bob", 0.5, 0, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay restores the identical state and the ledger stays writable.
	r := openT(t, path, Options{})
	wantBalance(t, r, "alice", 1.5, 0, 1)
	wantBalance(t, r, "bob", 0.5, 0, 1)
	if got := r.Tenants(); len(got) != 2 || got[0].TenantID != "alice" || got[1].TenantID != "bob" {
		t.Fatalf("Tenants() = %v", got)
	}
	if err := r.Reserve("alice", "j4", 3.5, 0); err != nil {
		t.Fatal(err)
	}
	wantBalance(t, r, "alice", 1.5, 3.5, 1)
}

func TestTypedRejections(t *testing.T) {
	l := openT(t, filepath.Join(t.TempDir(), "wal"), Options{})
	if err := l.CreateTenant("alice", 1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTenant("alice", 1, 1e-6); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("duplicate create = %v, want ErrTenantExists", err)
	}
	if err := l.EnsureTenant("alice", 99, 1); err != nil {
		t.Fatalf("EnsureTenant on existing = %v", err)
	}
	if b, _ := l.Balance("alice"); b.EpsTotal != 1 {
		t.Fatalf("EnsureTenant overwrote the allowance: %v", b)
	}
	if err := l.Reserve("mallory", "j", 0.1, 0); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("unknown tenant = %v, want ErrNoTenant", err)
	}
	// A rejected reservation leaves spend (and everything else) unchanged.
	if err := l.Reserve("alice", "j", 1.5, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("oversized reserve = %v, want ErrBudgetExhausted", err)
	}
	wantBalance(t, l, "alice", 0, 0, 0)
	if err := l.Commit("alice", "ghost", 0.1, 0); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("commit without reservation = %v, want ErrNoReservation", err)
	}
	if err := release(l, "alice", "ghost", ""); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("release without reservation = %v, want ErrNoReservation", err)
	}
	// Double commit: the second is the double-spend guard.
	if err := l.Reserve("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("alice", "j1", 1, 0); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("double commit = %v, want ErrNoReservation", err)
	}
	// Committing above the reservation is refused.
	if err := l.CreateTenant("carol", 10, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("carol", "j2", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("carol", "j2", 2, 0); err == nil {
		t.Fatal("commit above reservation accepted")
	}
	wantBalance(t, l, "carol", 0, 1, 0)
}

// TestConcurrentReservationsNeverOversubscribe is the race pass: 64 analyst
// goroutines race to reserve ε=1 from a 10-ε tenant; exactly 10 may win.
func TestConcurrentReservationsNeverOversubscribe(t *testing.T) {
	l := openT(t, filepath.Join(t.TempDir(), "wal"), Options{})
	if err := l.CreateTenant("alice", 10, 1e-6); err != nil {
		t.Fatal(err)
	}
	const attempts = 64
	wins, err := parallel.Map(attempts, 16, func(i int) (bool, error) {
		err := l.Reserve("alice", "job-"+string(rune('A'+i/26))+string(rune('a'+i%26)), 1, 0)
		if err != nil && !errors.Is(err, ErrBudgetExhausted) {
			return false, err
		}
		return err == nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	won := 0
	for _, w := range wins {
		if w {
			won++
		}
	}
	if won != 10 {
		t.Fatalf("%d reservations won, want exactly 10", won)
	}
	wantBalance(t, l, "alice", 0, 10, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// And the oversubscription guard survives replay.
	r := openT(t, l.Path(), Options{})
	wantBalance(t, r, "alice", 0, 10, 0)
	if err := r.Reserve("alice", "late", 0.5, 0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("post-replay reserve = %v, want ErrBudgetExhausted", err)
	}
}

// TestTornTailTruncated: a half-written final record (the disk state a
// crash mid-append leaves behind) is detected and truncated; the intact
// prefix replays and the file accepts new appends on a clean boundary.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"op":"commit","tenant":"al`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openT(t, path, Options{})
	wantBalance(t, r, "alice", 0, 1, 0) // the torn commit never happened
	if err := r.Commit("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr := openT(t, path, Options{})
	wantBalance(t, rr, "alice", 1, 0, 1)
}

// TestCorruptTailRefused: a newline-terminated, decodable final record with
// a bad checksum is not a torn append (a torn append cannot include the
// trailing newline) — it is bit-rot of a durably fsynced record, possibly a
// reserve or commit, and silently dropping it would under-count spend. The
// "refuse to guess" contract applies to the tail too.
func TestCorruptTailRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the final (commit) record's epsilon, keeping it valid JSON with
	// its newline intact: the checksum catches the edit.
	mut := strings.Replace(string(data), `"op":"commit","tenant":"alice","job":"j1","eps":1`,
		`"op":"commit","tenant":"alice","job":"j1","eps":3`, 1)
	if mut == string(data) {
		t.Fatal("test setup: commit record not found")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt tail = %v, want ErrCorrupt", err)
	}
}

// TestSecondOpenLocked: the WAL admits one process at a time — a second
// Open while the first ledger is live fails fast instead of interleaving
// conflicting sequence numbers; closing the first frees the lock.
func TestSecondOpenLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open = %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, path, Options{})
	wantBalance(t, r, "alice", 0, 0, 0)
}

// TestDeltaSlackIsTight: the rounding slack scales with the budget, so at
// δ's magnitude (~1e-6) it absorbs ulps only — an absolute 1e-9 slack
// would wave through this ~0.05% genuine δ oversubscription.
func TestDeltaSlackIsTight(t *testing.T) {
	l := openT(t, filepath.Join(t.TempDir(), "wal"), Options{})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j1", 1, 1.0005e-6); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("δ overshoot reserve = %v, want ErrBudgetExhausted", err)
	}
	// Exactly draining the δ budget still succeeds.
	if err := l.Reserve("alice", "j2", 1, 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptInteriorRefused: a bad record before the tail is not a torn
// append — the ledger refuses to guess at balances.
func TestCorruptInteriorRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the reserve record's epsilon (keeping it valid JSON): the
	// checksum catches the edit.
	mut := strings.Replace(string(data), `"op":"reserve","tenant":"alice","job":"j1","eps":1`,
		`"op":"reserve","tenant":"alice","job":"j1","eps":4`, 1)
	if mut == string(data) {
		t.Fatal("test setup: reserve record not found")
	}
	if err := os.WriteFile(path, []byte(mut), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt interior = %v, want ErrCorrupt", err)
	}
}

func TestInvalidInputs(t *testing.T) {
	l := openT(t, filepath.Join(t.TempDir(), "wal"), Options{})
	for _, tc := range []struct {
		id       string
		eps, del float64
	}{
		{"", 1, 0}, {"a\nb", 1, 0}, {"ok", 0, 0}, {"ok", -1, 0}, {"ok", 1, -1},
	} {
		if err := l.CreateTenant(tc.id, tc.eps, tc.del); err == nil {
			t.Errorf("CreateTenant(%q, %g, %g) accepted", tc.id, tc.eps, tc.del)
		}
	}
	if err := l.CreateTenant("alice", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j", 0, 0); err == nil {
		t.Error("zero-ε reservation accepted")
	}
}

// TestJobGrammar pins the per-job state machine the log enforces — reserve →
// [claim] → commit | release — at both ends: Append refuses an out-of-order
// record with a typed error and writes nothing, and replay refuses a file
// that holds one.
func TestJobGrammar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	claim := func(job string) error { return l.Append(&Record{Op: OpClaim, Tenant: "alice", Job: job}, nil) }
	if err := claim("ghost"); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("claim without reservation = %v, want ErrNoReservation", err)
	}
	if err := l.Reserve("alice", "j1", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j2", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := claim("j1"); err != nil {
		t.Fatal(err)
	}
	if err := claim("j1"); !errors.Is(err, ErrClaimed) {
		t.Fatalf("second claim = %v, want ErrClaimed", err)
	}
	// A claimed job cannot be canceled; it can still fail.
	if err := release(l, "alice", "j1", NoteCanceled); !errors.Is(err, ErrClaimed) {
		t.Fatalf("cancel of a claimed job = %v, want ErrClaimed", err)
	}
	// A queued job can be canceled, and then cannot be claimed.
	if err := release(l, "alice", "j2", NoteCanceled); err != nil {
		t.Fatal(err)
	}
	if err := claim("j2"); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("claim of a canceled job = %v, want ErrNoReservation", err)
	}
	if err := l.Append(&Record{Op: OpCheckpoint, Tenant: "alice"}, nil); err == nil {
		t.Fatal("a checkpoint was appended outside Compact")
	}
	seq := l.Seq()
	if seq != 5 { // create, reserve ×2, claim, release — refusals wrote nothing
		t.Fatalf("seq = %d after the refusals, want 5", seq)
	}
	var ran bool
	if err := release(l, "alice", "ghost", "x"); err == nil || ran {
		t.Fatal("a refused append ran its applied callback")
	}
	if err := l.Append(&Record{Op: OpRelease, Tenant: "alice", Job: "j1", Note: "failed_closed"}, func() { ran = true }); err != nil || !ran {
		t.Fatalf("release of a claimed job = %v (applied ran: %v)", err, ran)
	}
	wantBalance(t, l, "alice", 0, 0, 0)
	l.Close()

	// The same refusals as file contents: a claim after a claim is corrupt.
	for _, bad := range [][]Record{
		{{Op: OpCreate, Tenant: "a", Eps: 1}, {Op: OpReserve, Tenant: "a", Job: "j", Eps: 1}, {Op: OpClaim, Tenant: "a", Job: "j"}, {Op: OpClaim, Tenant: "a", Job: "j"}},
		{{Op: OpCreate, Tenant: "a", Eps: 1}, {Op: OpReserve, Tenant: "a", Job: "j", Eps: 1}, {Op: OpClaim, Tenant: "a", Job: "j"}, {Op: OpRelease, Tenant: "a", Job: "j", Note: NoteCanceled}},
		{{Op: OpCreate, Tenant: "a", Eps: 1}, {Op: OpClaim, Tenant: "a", Job: "j"}},
		{{Op: OpCheckpoint, Tenant: "a", Eps: 1}},
		// A tenant id no Append would accept, aliasing another job's key.
		{{Op: OpCreate, Tenant: "a", Eps: 1}, {Op: OpReserve, Tenant: "a", Job: "b\x00c", Eps: 1}, {Op: OpCommit, Tenant: "a\x00b", Job: "c", Eps: 1}},
	} {
		p := filepath.Join(t.TempDir(), "bad")
		if err := os.WriteFile(p, logBytes(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, Options{}); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open over %v = %v, want ErrCorrupt", bad, err)
		}
	}
}

// logBytes renders records the way the WAL writes them.
func logBytes(recs []Record) []byte {
	var out []byte
	for i := range recs {
		r := &recs[i]
		r.Seq = uint64(i + 1)
		r.Sum = r.checksum()
		line, _ := json.Marshal(r)
		out = append(append(out, line...), '\n')
	}
	return out
}

// TestGoldenFormat pins the on-disk format. The first three lines are the
// ones docs/SERVICE.md prints, as a ledger from before jobs lived in it
// wrote them (captured from that code): a record without payload is that
// format still, checksum and bytes. The rest are one line per shape this
// format adds.
func TestGoldenFormat(t *testing.T) {
	const golden = `{"seq":1,"op":"create","tenant":"alice","eps":5,"del":0.000001,"sum":"bb9389a6f9e9b469"}
{"seq":2,"op":"reserve","tenant":"alice","job":"9a2c326eaa477746","eps":1,"del":9.094947017729282e-13,"sum":"21dae49cb149ec36"}
{"seq":3,"op":"commit","tenant":"alice","job":"9a2c326eaa477746","eps":1,"del":9.094947017729282e-13,"sum":"9fa4cff8aaeb2d58"}
{"seq":4,"op":"reserve","tenant":"alice","job":"j2","eps":0.5,"del":1e-9,"source":"aggr = sum(db);\noutput(declassify(laplace(aggr[0], 2.0)));","faults":"seed=7,upload=0.1","job_seq":2,"timeout":30,"sum":"be2f788afce9f1b8"}
{"seq":5,"op":"claim","tenant":"alice","job":"j2","sum":"64a6263910938b53"}
{"seq":6,"op":"commit","tenant":"alice","job":"j2","eps":0.5,"del":1e-9,"digest":"00d1e8f5a3b7c942","sum":"e1cc159b05bbf449"}
{"seq":7,"op":"reserve","tenant":"alice","job":"j3","eps":1,"source":"q","job_seq":3,"sum":"b1a5782989017d1e"}
{"seq":8,"op":"commit","tenant":"alice","job":"j3","eps":1,"code":"crashed","sum":"766d6ede83c5228a"}
{"seq":9,"op":"checkpoint","tenant":"alice","eps":2.5,"del":1.000909494701773e-9,"queries":3,"sum":"ee115a8330da3ffa"}
`
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, []byte(golden), 0o644); err != nil {
		t.Fatal(err)
	}
	var replayed []Record
	l := openT(t, path, Options{Replay: func(r *Record) { replayed = append(replayed, *r) }})
	if got := string(logBytes(replayed)); got != golden {
		t.Fatalf("replayed records re-marshal to\n%s\nwant\n%s", got, golden)
	}
	wantBalance(t, l, "alice", 2.5, 0, 3)
	// The same lines, written by this code from values.
	written := []Record{
		{Op: OpCreate, Tenant: "alice", Eps: 5, Del: 1e-6},
		{Op: OpReserve, Tenant: "alice", Job: "9a2c326eaa477746", Eps: 1, Del: 9.094947017729282e-13},
		{Op: OpCommit, Tenant: "alice", Job: "9a2c326eaa477746", Eps: 1, Del: 9.094947017729282e-13},
		{Op: OpReserve, Tenant: "alice", Job: "j2", Eps: 0.5, Del: 1e-9,
			Source: "aggr = sum(db);\noutput(declassify(laplace(aggr[0], 2.0)));", Faults: "seed=7,upload=0.1", JobSeq: 2, Timeout: 30},
		{Op: OpClaim, Tenant: "alice", Job: "j2"},
		{Op: OpCommit, Tenant: "alice", Job: "j2", Eps: 0.5, Del: 1e-9, Digest: "00d1e8f5a3b7c942"},
		{Op: OpReserve, Tenant: "alice", Job: "j3", Eps: 1, Source: "q", JobSeq: 3},
		{Op: OpCommit, Tenant: "alice", Job: "j3", Eps: 1, Code: "crashed"},
		{Op: OpCheckpoint, Tenant: "alice", Eps: 2.5, Del: 9.094947017729282e-13 + 1e-9, Queries: 3},
	}
	if got := string(logBytes(written)); got != golden {
		t.Fatalf("written records marshal to\n%s\nwant\n%s", got, golden)
	}
}

// TestCompact: compaction keeps exactly what the state needs — totals, the
// retained jobs' records, a checkpoint per tenant — and every Balance is the
// same float64 bits before it, after it, and after a reopen, however the
// dropped jobs' sums rounded. It refuses a retained set that would lose a job
// in flight, and a crash inside it leaves the old log.
func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{})
	for _, tenant := range []string{"alice", "bob"} {
		if err := l.CreateTenant(tenant, 100, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	// Sums that do not round-trip through a different order of addition:
	// 0.1 + 0.2 + 0.3 ≠ 0.3 + 0.2 + 0.1 in float64.
	var kept []*Record
	for i, eps := range []float64{0.1, 0.2, 0.3, 0.7, 1e-3} {
		job := fmt.Sprintf("j%d", i)
		reserve := &Record{Op: OpReserve, Tenant: "alice", Job: job, Eps: eps, Del: eps * 1e-7, Source: "q", JobSeq: uint64(i + 1)}
		claim := &Record{Op: OpClaim, Tenant: "alice", Job: job}
		commit := &Record{Op: OpCommit, Tenant: "alice", Job: job, Eps: eps, Del: eps * 1e-7, Digest: "d"}
		for _, r := range []*Record{reserve, claim, commit} {
			if err := l.Append(r, nil); err != nil {
				t.Fatal(err)
			}
		}
		if i >= 3 { // the gateway retains the last two settled jobs
			kept = append(kept, reserve, claim, commit)
		}
	}
	// Two jobs in flight, one claimed; they must survive.
	queued := &Record{Op: OpReserve, Tenant: "bob", Job: "q1", Eps: 2, Source: "q", JobSeq: 6}
	running := &Record{Op: OpReserve, Tenant: "alice", Job: "r1", Eps: 3, Source: "q", JobSeq: 7}
	claimed := &Record{Op: OpClaim, Tenant: "alice", Job: "r1"}
	for _, r := range []*Record{queued, running, claimed} {
		if err := l.Append(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Tenants()
	sizeBefore := l.Size()

	if err := l.Compact(func() []*Record { return kept }); err == nil {
		t.Fatal("Compact accepted a retained set that drops the jobs in flight")
	}
	if err := l.Compact(func() []*Record { return append(kept, queued, running) }); err == nil {
		t.Fatal("Compact accepted a retained set that forgets a claim")
	}
	if l.Size() != sizeBefore {
		t.Fatal("a refused Compact touched the file")
	}
	retained := func() []*Record { return append(kept, queued, running, claimed) }
	if err := l.Compact(retained); err != nil {
		t.Fatal(err)
	}
	// 2 creates + 6 retained + 3 in flight + 2 checkpoints.
	if l.Seq() != 13 || l.Size() >= sizeBefore {
		t.Fatalf("after Compact seq %d size %d (was %d), want 13 records and a smaller file", l.Seq(), l.Size(), sizeBefore)
	}
	if got := l.Tenants(); !reflect.DeepEqual(got, before) {
		t.Fatalf("Compact moved a balance:\n%+v\nwas\n%+v", got, before)
	}
	l.Close()

	var replayed []Record
	r := openT(t, path, Options{Replay: func(rec *Record) { replayed = append(replayed, *rec) }})
	if got := r.Tenants(); !reflect.DeepEqual(got, before) {
		t.Fatalf("reopen after Compact moved a balance:\n%+v\nwas\n%+v", got, before)
	}
	if len(replayed) != 13 || replayed[12].Op != OpCheckpoint {
		t.Fatalf("compacted log replays %d records ending in %q", len(replayed), replayed[len(replayed)-1].Op)
	}
	// The jobs in flight are still jobs: they settle as if nothing happened,
	// and the arithmetic continues from the same bits.
	if err := r.Commit("alice", "r1", 3, 0); err != nil {
		t.Fatal(err)
	}
	if err := release(r, "bob", "q1", NoteCanceled); err != nil {
		t.Fatal(err)
	}
	wantBalance(t, r, "bob", 0, 0, 0)
	if b, _ := r.Balance("alice"); b.EpsSpent != before[0].EpsSpent+3 || b.EpsReserved != before[0].EpsReserved-3 {
		t.Fatalf("alice after settling = %+v, want the pre-compaction bits ± 3", b)
	}
	after := r.Tenants()
	r.Close()

	// A death inside Compact, at either stage of the rewrite, leaves the old
	// log: identical balances on reopen.
	for stage := 0; stage <= 1; stage++ {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cp := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(cp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		plan := faults.New(1).ForceAt(faults.WALCrash, 16, stage) // 15 records, so the rewrite is "record 16"
		c := openT(t, cp, Options{Crash: plan})
		if err := c.Compact(func() []*Record { return nil }); !errors.Is(err, ErrCrashed) {
			t.Fatalf("Compact under wal@16.%d = %v, want ErrCrashed", stage, err)
		}
		c.Close()
		c2 := openT(t, cp, Options{})
		if got := c2.Tenants(); !reflect.DeepEqual(got, after) || c2.Seq() != 15 {
			t.Fatalf("stage %d: reopen after a crashed Compact = seq %d %+v, want the old log's %+v", stage, c2.Seq(), got, after)
		}
		c2.Close()
	}
}
