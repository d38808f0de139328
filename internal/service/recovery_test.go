package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"arboretum/internal/faults"
	"arboretum/internal/ledger"
)

// meanQuery is a second fixed-price query so recovery sweeps mix certified
// prices (laplace scale 2 certifies at ε=0.5).
const meanQuery = "aggr = sum(db);\nnoised = laplace(aggr[0], 2.0);\noutput(declassify(noised));"

// waitCrashed polls until the server's injected daemon death fires.
func waitCrashed(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if s.crashed.Load() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("injected daemon crash did not fire in 30s")
}

// waitSettled polls the job table until every id is terminal, or the daemon
// "dies" (after which nothing further settles in this process).
func waitSettled(t *testing.T, s *Server, ids []string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if s.crashed.Load() {
			return
		}
		settled := 0
		for _, id := range ids {
			j, ok, _ := s.store.get(id)
			if ok && (j.State == JobDone || j.State == JobFailed || j.State == JobCanceled) {
				settled++
			}
		}
		if settled == len(ids) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("jobs did not settle in 60s")
}

// TestDaemonCrashStages kills the daemon deterministically at each of the
// four job-lifecycle boundaries ("daemon" stage 0–3) and asserts the restart
// re-executes the job to Done with exactly the certified spend — replaying
// the one log recovers every crash point, never double-charging.
func TestDaemonCrashStages(t *testing.T) {
	for stage := 0; stage <= 3; stage++ {
		t.Run(fmt.Sprintf("stage%d", stage), func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 5, Delta: 1e-6}}
			s, ts := startT(t, cfg, hooks{daemon: faults.New(1).ForceAt(faults.DaemonCrash, 1, stage)})

			j, code, _ := submit(t, ts.URL, "alice", countQuery)
			if code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", code)
			}
			waitCrashed(t, s)
			// The "dead" daemon refuses new work with a typed error.
			if _, code, ec := submit(t, ts.URL, "alice", countQuery); code != http.StatusServiceUnavailable || ec != "shutting_down" {
				t.Fatalf("submit to crashed daemon = HTTP %d %q", code, ec)
			}
			ts.Close()
			s.Close()

			s2, ts2 := startT(t, cfg, hooks{})
			f := waitTerminal(t, ts2.URL, j.ID)
			if f.State != JobDone || !f.Recovered || f.ResultDigest == "" {
				t.Fatalf("recovered job = %s recovered=%v digest=%q (%s)",
					f.State, f.Recovered, f.ResultDigest, f.Error)
			}
			b, _ := s2.ledger.Balance("alice")
			if math.Abs(b.EpsSpent-j.Epsilon) > 1e-9 || b.EpsReserved != 0 || b.Queries != 1 {
				t.Fatalf("stage %d balance %+v, want spent=%g reserved=0 queries=1", stage, b, j.Epsilon)
			}
		})
	}
}

// TestDaemonCrashRestartSweep is the chaos acceptance scenario for crash
// recovery: recoverySchedules independent seeded daemon-death schedules, each
// killing the daemon at rate-drawn job-lifecycle boundaries, restarting on
// the same ledger (with fresh death schedules, then a clean final life)
// until everything settles. After every schedule: all jobs Done, each
// reproducing the crash-free baseline's result digest bit-for-bit, with the
// tenant charged exactly once per job — no double-spends, no leaked
// reservations, no lost jobs.
func TestDaemonCrashRestartSweep(t *testing.T) {
	queries := []string{countQuery, meanQuery, countQuery, meanQuery}

	// Crash-free baseline: pins the digest and price each job seq must
	// reproduce under every crash schedule.
	base := testConfig(t)
	base.Tenants = []TenantSpec{{ID: "alice", Epsilon: 1000, Delta: 1e-3}}
	_, bts := startT(t, base, hooks{})
	want := make([]Job, len(queries))
	for i, q := range queries {
		j, code, _ := submit(t, bts.URL, "alice", q)
		if code != http.StatusAccepted {
			t.Fatalf("baseline submit %d: HTTP %d", i, code)
		}
		want[i] = waitTerminal(t, bts.URL, j.ID)
		if want[i].State != JobDone || want[i].ResultDigest == "" {
			t.Fatalf("baseline job %d = %s digest %q", i, want[i].State, want[i].ResultDigest)
		}
	}
	var wantEps float64
	for i := range want {
		wantEps += want[i].Epsilon
	}

	for seed := 0; seed < recoverySchedules; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t)
			cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 1000, Delta: 1e-3}}
			// Park the executor until every job is admitted, so all
			// schedules run the same submission order (seq 1..N) and the
			// digests are comparable to the baseline's.
			hold := make(chan struct{})
			s, err := newServer(cfg, hooks{
				hold:   hold,
				daemon: faults.New(uint64(seed)).SetRate(faults.DaemonCrash, 0.15),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			front := httptest.NewServer(s.Handler())
			ids := make([]string, len(queries))
			for i, q := range queries {
				j, code, _ := submit(t, front.URL, "alice", q)
				if code != http.StatusAccepted {
					t.Fatalf("seed %d submit %d: HTTP %d", seed, i, code)
				}
				ids[i] = j.ID
			}
			front.Close()
			close(hold)

			waitSettled(t, s, ids)
			for life := 1; s.crashed.Load(); life++ {
				if life > 8 {
					t.Fatalf("seed %d: still crashing after 8 restarts", seed)
				}
				s.Close()
				// Fresh death schedule for the first restart (the same seed
				// would re-fire at the same recovered job seqs forever);
				// later lives run clean to guarantee convergence.
				var daemon *faults.Plan
				if life < 2 {
					daemon = faults.New(uint64(seed)*131+uint64(life)).SetRate(faults.DaemonCrash, 0.15)
				}
				s, err = newServer(cfg, hooks{daemon: daemon})
				if err != nil {
					t.Fatalf("seed %d restart %d: %v", seed, life, err)
				}
				waitSettled(t, s, ids)
			}

			for i, id := range ids {
				j, ok, _ := s.store.get(id)
				if !ok {
					t.Fatalf("seed %d: job %d lost", seed, i)
				}
				if j.State != JobDone {
					t.Fatalf("seed %d: job %d = %s code %q (%s)", seed, i, j.State, j.ErrorCode, j.Error)
				}
				if j.ResultDigest != want[i].ResultDigest {
					t.Fatalf("seed %d: job %d digest %s, baseline %s — recovery was not bit-identical",
						seed, i, j.ResultDigest, want[i].ResultDigest)
				}
			}
			b, _ := s.ledger.Balance("alice")
			if math.Abs(b.EpsSpent-wantEps) > 1e-9 || b.EpsReserved != 0 || b.Queries != len(queries) {
				t.Fatalf("seed %d balance %+v, want spent=%g reserved=0 queries=%d — budget drifted across crash+restart",
					seed, b, wantEps, len(queries))
			}
		})
	}
}

// TestJobDeadline: a job whose deadline has already passed is canceled at
// the runtime's first checkpoint, fails with deadline_exceeded, and releases
// its reservation; the single executor slot is reclaimed, and a per-request
// timeout_seconds override extends past the server default so the next job
// completes on the same worker.
func TestJobDeadline(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.JobTimeout = time.Nanosecond // every run starts already overdue
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
	s, ts := startT(t, cfg, hooks{})

	j1, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	f1 := waitTerminal(t, ts.URL, j1.ID)
	if f1.State != JobFailed || f1.ErrorCode != "deadline_exceeded" {
		t.Fatalf("overdue job = %s/%s (%s), want failed/deadline_exceeded", f1.State, f1.ErrorCode, f1.Error)
	}
	if b, _ := s.ledger.Balance("alice"); b.EpsReserved != 0 || b.EpsSpent != 0 {
		t.Fatalf("balance after deadline %+v, want reservation released", b)
	}

	// The override extends the default: same worker, job completes.
	var raw json.RawMessage
	code = call(t, "POST", ts.URL+"/v1/queries",
		map[string]any{"tenant": "alice", "source": countQuery, "timeout_seconds": 300.0}, &raw)
	if code != http.StatusAccepted {
		t.Fatalf("submit with override: HTTP %d %s", code, raw)
	}
	var j2 Job
	if err := json.Unmarshal(raw, &j2); err != nil {
		t.Fatal(err)
	}
	f2 := waitTerminal(t, ts.URL, j2.ID)
	if f2.State != JobDone {
		t.Fatalf("job with extended deadline = %s (%s)", f2.State, f2.Error)
	}
	if b, _ := s.ledger.Balance("alice"); math.Abs(b.EpsSpent-j2.Epsilon) > 1e-9 || b.EpsReserved != 0 || b.Queries != 1 {
		t.Fatalf("final balance %+v, want only the completed job spent", b)
	}

	// A negative override is refused outright.
	if _, code, ec := submitTimeout(t, ts.URL, "alice", countQuery, -1); code != http.StatusBadRequest || ec != "bad_request" {
		t.Fatalf("negative timeout = HTTP %d %q", code, ec)
	}
}

// TestDrainTimeout: Drain with a deadline returns once the deadline passes
// even though a worker is wedged (parked on the test gate mid-job); the
// undone job keeps its reserve record and so its reservation, and a restart
// re-executes it to completion with exact accounting.
func TestDrainTimeout(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})

	j, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	start := time.Now()
	if err := s.Drain(100 * time.Millisecond); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("Drain blocked %v past its deadline", waited)
	}
	// The job never ran: its reservation is still held for the next process.
	if b, _ := s.ledger.Balance("alice"); b.EpsReserved != j.Epsilon {
		t.Fatalf("post-drain balance %+v, want the queued job's reservation held", b)
	}
	close(hold) // release the parked worker; it sees draining and exits

	s2, ts2 := startT(t, cfg, hooks{})
	f := waitTerminal(t, ts2.URL, j.ID)
	if f.State != JobDone || !f.Recovered {
		t.Fatalf("recovered job = %s recovered=%v (%s)", f.State, f.Recovered, f.Error)
	}
	if b, _ := s2.ledger.Balance("alice"); math.Abs(b.EpsSpent-j.Epsilon) > 1e-9 || b.EpsReserved != 0 {
		t.Fatalf("post-recovery balance %+v", b)
	}
}

// submitTimeout posts a submission with a timeout_seconds override.
func submitTimeout(t *testing.T, base, tenant, source string, timeout float64) (Job, int, string) {
	t.Helper()
	var raw json.RawMessage
	code := call(t, "POST", base+"/v1/queries",
		map[string]any{"tenant": tenant, "source": source, "timeout_seconds": timeout}, &raw)
	if code == http.StatusAccepted {
		var j Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		return j, code, ""
	}
	var e errEnvelope
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	return Job{}, code, e.Error.Code
}

// failClosedFaults is a per-job fault spec under which every upload times
// out, so the run fails closed (no valid inputs) before any heavy work.
const failClosedFaults = "seed=9,upload=1"

// submitWith posts a submission with extra fields (faults, timeout_seconds).
func submitWith(t *testing.T, base, tenant, source string, extra map[string]any) Job {
	t.Helper()
	body := map[string]any{"tenant": tenant, "source": source}
	for k, v := range extra {
		body[k] = v
	}
	var j Job
	if code := call(t, "POST", base+"/v1/queries", body, &j); code != http.StatusAccepted {
		t.Fatalf("submit for %s: HTTP %d", tenant, code)
	}
	return j
}

// TestJobRetention: terminal jobs past Config.RetainJobs are evicted
// oldest-first; their status, result, and cancel reads return the typed 410
// "expired" error, and the health endpoint counts them. The ledger is bounded
// the same way: compaction drops the evicted jobs' records and keeps their
// spend in a checkpoint, so after six times the retention cap in settled
// jobs — done, canceled, failed closed, across three tenants — the file is
// the size it was after one, every balance equals, bit for bit, a reference
// ledger that saw the same operations and was never compacted, and a death
// inside the compaction leaves the old file.
func TestJobRetention(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.RetainJobs = 3
	tenants := []string{"alice", "bob", "carol"}
	ref, err := ledger.Open(filepath.Join(t.TempDir(), "reference"), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, id := range tenants {
		cfg.Tenants = append(cfg.Tenants, TenantSpec{ID: id, Epsilon: 100, Delta: 1e-3})
		if err := ref.CreateTenant(id, 100, 1e-3); err != nil {
			t.Fatal(err)
		}
	}
	// One token per dequeued job lets the test keep a job queued long enough
	// to cancel it.
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})

	var ids []string // settled jobs, oldest first
	settled := func(j Job, want JobState) {
		t.Helper()
		f := waitTerminal(t, ts.URL, j.ID)
		if f.State != want {
			t.Fatalf("job %d = %s (%s), want %s", len(ids), f.State, f.Error, want)
		}
		// The reference sees the same budget operations, in the same order.
		if err := ref.Reserve(j.Tenant, j.ID, j.Epsilon, j.Delta); err != nil {
			t.Fatal(err)
		}
		if want == JobDone {
			err = ref.Commit(j.Tenant, j.ID, f.SpentEpsilon, f.SpentDelta)
		} else {
			err = ref.Append(&ledger.Record{Op: ledger.OpRelease, Tenant: j.Tenant, Job: j.ID, Note: f.ErrorCode}, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	run := func(i int) {
		t.Helper()
		tenant, query := tenants[i%3], []string{countQuery, meanQuery}[i%2]
		switch {
		case i == 7: // the fail-closed job
			j := submitWith(t, ts.URL, tenant, query, map[string]any{"faults": failClosedFaults})
			hold <- struct{}{}
			settled(j, JobFailed)
		case i%5 == 4: // canceled while queued behind a parked job
			parked := submitWith(t, ts.URL, tenant, query, nil)
			queued := submitWith(t, ts.URL, tenant, query, nil)
			if code := call(t, "DELETE", ts.URL+"/v1/queries/"+queued.ID, nil, nil); code != http.StatusOK {
				t.Fatalf("cancel: HTTP %d", code)
			}
			settled(queued, JobCanceled)
			hold <- struct{}{} // parked runs
			settled(parked, JobDone)
			hold <- struct{}{} // the canceled job is dequeued and skipped
		default:
			j := submitWith(t, ts.URL, tenant, query, nil)
			hold <- struct{}{}
			settled(j, JobDone)
		}
	}
	sameBalances := func(when string, l *ledger.Ledger) {
		t.Helper()
		if got, want := l.Tenants(), ref.Tenants(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s the balances are\n%+v\nthe uncompacted reference has\n%+v", when, got, want)
		}
	}

	for i := 0; len(ids) < cfg.RetainJobs; i++ {
		run(i)
	}
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	sizeAtOne := s.ledger.Size()
	for i := cfg.RetainJobs; len(ids) < 6*cfg.RetainJobs; i++ {
		run(i)
	}
	sameBalances("before compaction", s.ledger)
	uncompacted := s.ledger.Size()
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	sameBalances("after compaction", s.ledger)
	if size := s.ledger.Size(); size > 2*sizeAtOne || size >= uncompacted {
		t.Fatalf("ledger is %d bytes after %d settled jobs (%d before compaction), %d after %d: not bounded by the retention cap",
			size, len(ids), uncompacted, sizeAtOne, cfg.RetainJobs)
	}

	oldest, newest := ids[0], ids[len(ids)-1]
	var e errEnvelope
	for _, path := range []string{"/v1/queries/" + oldest, "/v1/queries/" + oldest + "/result"} {
		if code := call(t, "GET", ts.URL+path, nil, &e); code != http.StatusGone || e.Error.Code != "expired" {
			t.Fatalf("GET %s = HTTP %d %q, want 410 expired", path, code, e.Error.Code)
		}
	}
	if code := call(t, "DELETE", ts.URL+"/v1/queries/"+oldest, nil, &e); code != http.StatusGone || e.Error.Code != "expired" {
		t.Fatalf("cancel evicted = HTTP %d %q, want 410 expired", code, e.Error.Code)
	}
	// The newest jobs are still inside the window.
	var j Job
	if code := call(t, "GET", ts.URL+"/v1/queries/"+newest, nil, &j); code != http.StatusOK || j.State != JobDone {
		t.Fatalf("newest job = HTTP %d %s", code, j.State)
	}
	var h struct {
		Expired int    `json:"expired_jobs"`
		Path    string `json:"ledger_path"`
		Bytes   int64  `json:"ledger_bytes"`
		Lag     uint64 `json:"ledger_lag"`
	}
	if code := call(t, "GET", ts.URL+"/v1/health", nil, &h); code != http.StatusOK {
		t.Fatalf("health: HTTP %d", code)
	}
	if h.Expired != len(ids)-cfg.RetainJobs || h.Path != cfg.LedgerPath || h.Bytes != s.ledger.Size() || h.Lag != 0 {
		t.Fatalf("health gauges %+v, want expired_jobs=%d and the compacted ledger's path, size and zero lag",
			h, len(ids)-cfg.RetainJobs)
	}

	// Close + reopen: the compacted file replays to the same balances and
	// the retained jobs; a job compacted away is unknown to the new process.
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage <= 1; stage++ {
		// A death inside the rewrite (the record after the last one): torn
		// temp file, then between its fsync and the rename.
		sc, _ := startT(t, cfg, hooks{ledger: faults.New(1).ForceAt(faults.WALCrash, int(s.ledger.Seq())+1, stage)})
		sameBalances("after close + reopen", sc.ledger)
		if n := len(sc.store.snapshot()); n != cfg.RetainJobs {
			t.Fatalf("reopened job table has %d jobs, want the %d retained", n, cfg.RetainJobs)
		}
		if _, ok, expired := sc.store.get(oldest); ok || expired {
			t.Fatalf("a job compacted out of the log came back (found %v, expired %v)", ok, expired)
		}
		if err := sc.compact(); !errors.Is(err, ledger.ErrCrashed) {
			t.Fatalf("compaction under wal@%d.%d = %v, want ErrCrashed", s.ledger.Seq()+1, stage, err)
		}
		sc.Close()
		l, err := ledger.Open(cfg.LedgerPath, ledger.Options{})
		if err != nil {
			t.Fatalf("reopen after a crash inside Compact (stage %d): %v", stage, err)
		}
		sameBalances("after a crash inside Compact", l)
		l.Close()
	}
}

// TestJournalTornAndCorrupt: the gateway's one log follows the WAL's
// recovery rules — a torn tail (crash mid-append) truncates silently on
// restart, but interior corruption of a durable record refuses to start the
// daemon.
func TestJournalTornAndCorrupt(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
	s, ts := startT(t, cfg, hooks{})
	j, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	done := waitTerminal(t, ts.URL, j.ID)
	if done.State != JobDone {
		t.Fatalf("job = %s", done.State)
	}
	ts.Close()
	s.Close()

	// Torn tail: a half-written record with no newline is truncated and the
	// daemon starts with the intact history.
	fh, err := os.OpenFile(cfg.LedgerPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteString(`{"seq":99,"op":"reserve","tenant":"alice","job":"torn`); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	s2, ts2 := startT(t, cfg, hooks{})
	var got Job
	if code := call(t, "GET", ts2.URL+"/v1/queries/"+j.ID, nil, &got); code != http.StatusOK {
		t.Fatalf("status after torn-tail restart: HTTP %d", code)
	}
	if got.State != JobDone || !got.Recovered || got.ResultDigest != done.ResultDigest || got.SpentEpsilon != done.SpentEpsilon {
		t.Fatalf("restored job = %s recovered=%v digest=%q spent=%g, want done with digest %q",
			got.State, got.Recovered, got.ResultDigest, got.SpentEpsilon, done.ResultDigest)
	}
	ts2.Close()
	s2.Close()

	// Interior corruption: flip a field inside a durable record; the daemon
	// must refuse to guess at job history or balances.
	data, err := os.ReadFile(cfg.LedgerPath)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(data, []byte(`"op":"reserve"`), []byte(`"op":"reserv3"`), 1)
	if bytes.Equal(corrupted, data) {
		t.Fatal("corruption target not found in the ledger")
	}
	if err := os.WriteFile(cfg.LedgerPath, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); !errors.Is(err, ledger.ErrCorrupt) {
		t.Fatalf("open over a corrupt ledger = %v, want ledger.ErrCorrupt", err)
	}
}

// TestLegacyLedger: a ledger written before jobs lived in it (the four lines
// below are that code's bytes) opens as it is. Its dangling reservation
// carries no payload, so it cannot be re-executed: it is charged fail-closed
// at the reserved amount — that daemon's rule for a reservation it could not
// match to a job, which survives only here. The job journal it may have left
// beside the ledger is neither read nor deleted.
func TestLegacyLedger(t *testing.T) {
	const legacy = `{"seq":1,"op":"create","tenant":"alice","eps":5,"del":0.000001,"sum":"bb9389a6f9e9b469"}
{"seq":2,"op":"reserve","tenant":"alice","job":"9a2c326eaa477746","eps":1,"del":9.094947017729282e-13,"sum":"21dae49cb149ec36"}
{"seq":3,"op":"commit","tenant":"alice","job":"9a2c326eaa477746","eps":1,"del":9.094947017729282e-13,"sum":"9fa4cff8aaeb2d58"}
{"seq":4,"op":"reserve","tenant":"alice","job":"dangling","eps":2,"sum":"3f32e64e646ada5a"}
`
	const leftover = "not a journal any more\n"
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 5, Delta: 1e-6}}
	if err := os.WriteFile(cfg.LedgerPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.LedgerPath+".jobs", []byte(leftover), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := startT(t, cfg, hooks{})
	if b, _ := s.ledger.Balance("alice"); b.EpsSpent != 3 || b.EpsReserved != 0 || b.Queries != 2 {
		t.Fatalf("balance %+v, want the dangling ε=2 charged on top of the committed ε=1", b)
	}
	var j Job
	if code := call(t, "GET", ts.URL+"/v1/queries/dangling", nil, &j); code != http.StatusOK {
		t.Fatalf("status of the dangling job: HTTP %d", code)
	}
	if j.State != JobFailed || j.ErrorCode != "crashed" || j.SpentEpsilon != 2 {
		t.Fatalf("dangling job = %s/%s spent %g, want failed/crashed charged 2", j.State, j.ErrorCode, j.SpentEpsilon)
	}
	data, err := os.ReadFile(cfg.LedgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(legacy)) || !bytes.Contains(data[len(legacy):], []byte(`"op":"commit","tenant":"alice","job":"dangling","eps":2,"code":"crashed"`)) {
		t.Fatalf("ledger after recovery:\n%s", data)
	}
	if got, err := os.ReadFile(cfg.LedgerPath + ".jobs"); err != nil || string(got) != leftover {
		t.Fatalf("the leftover journal was touched: %q, %v", got, err)
	}
}

// TestSecureNoiseRecovery: under SecureNoise a job in flight at a crash is
// not re-executed — a second run would be a second DP release against one
// certificate — but charged at its reservation and failed as "crashed".
func TestSecureNoiseRecovery(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})
	j, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if err := s.Drain(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	close(hold)

	cfg.SecureNoise = true
	s2, ts2 := startT(t, cfg, hooks{})
	f := waitTerminal(t, ts2.URL, j.ID)
	if f.State != JobFailed || f.ErrorCode != "crashed" || f.SpentEpsilon != j.Epsilon || !f.Recovered {
		t.Fatalf("recovered job = %s/%s spent %g, want failed/crashed charged %g", f.State, f.ErrorCode, f.SpentEpsilon, j.Epsilon)
	}
	if b, _ := s2.ledger.Balance("alice"); b.EpsSpent != j.Epsilon || b.EpsReserved != 0 || b.Queries != 1 {
		t.Fatalf("balance %+v, want the reservation charged", b)
	}
}

// logLines splits a ledger file into its newline-terminated records.
func logLines(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	return lines[:len(lines)-1] // the file ends in a newline: drop the empty remainder
}

// TestEveryPrefixRecovers replaces case analysis with enumeration. With one
// log a crash is a prefix of it, so: record one uncrashed session — three
// tenants, jobs that end done, canceled while queued, failed closed,
// deadline-exceeded, and one left queued at the drain — and then, for every
// record boundary k and for record k+1 torn in half, start a gateway on the
// first k records and let it settle. Whatever k: every job the prefix knows
// is terminal, each tenant has spent exactly the certified ε of its done
// jobs with nothing reserved, every done job has the digest every other
// prefix gave it (the uncrashed session's, where that finished it), and no
// job the prefix had settled has changed its mind.
func TestEveryPrefixRecovers(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	for _, id := range []string{"alice", "bob", "carol"} {
		cfg.Tenants = append(cfg.Tenants, TenantSpec{ID: id, Epsilon: 50, Delta: 1e-3})
	}
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})
	finish := func(j Job, want JobState, code string) {
		t.Helper()
		if f := waitTerminal(t, ts.URL, j.ID); f.State != want || f.ErrorCode != code {
			t.Fatalf("session job %s = %s/%s (%s), want %s/%s", j.ID, f.State, f.ErrorCode, f.Error, want, code)
		}
	}
	run := func(tenant, query string, extra map[string]any, want JobState, code string) {
		t.Helper()
		j := submitWith(t, ts.URL, tenant, query, extra)
		hold <- struct{}{}
		finish(j, want, code)
	}
	run("alice", countQuery, nil, JobDone, "")
	run("bob", meanQuery, nil, JobDone, "")
	parked := submitWith(t, ts.URL, "carol", countQuery, nil)
	queued := submitWith(t, ts.URL, "carol", meanQuery, nil)
	if code := call(t, "DELETE", ts.URL+"/v1/queries/"+queued.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	hold <- struct{}{}
	finish(parked, JobDone, "")
	hold <- struct{}{} // the canceled job is dequeued and skipped
	run("alice", countQuery, map[string]any{"faults": failClosedFaults}, JobFailed, "failed_closed")
	run("bob", countQuery, map[string]any{"timeout_seconds": 1e-9}, JobFailed, "deadline_exceeded")
	run("carol", meanQuery, nil, JobDone, "")
	submitWith(t, ts.URL, "alice", countQuery, nil) // still queued when the daemon drains
	if err := s.Drain(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	close(hold)
	ts.Close()
	lines := logLines(t, cfg.LedgerPath)
	if len(lines) != 3+6*3+2+1 { // creates; six jobs of three records; the cancel's two; the queued job's one
		t.Fatalf("the session wrote %d records:\n%s", len(lines), bytes.Join(lines, nil))
	}

	// settle starts a gateway on a log and returns every job once all are
	// terminal, having checked the accounting.
	settle := func(name string, log []byte) map[string]Job {
		t.Helper()
		c := cfg
		c.LedgerPath = filepath.Join(t.TempDir(), "ledger")
		if err := os.WriteFile(c.LedgerPath, log, 0o644); err != nil {
			t.Fatal(err)
		}
		sp, err := New(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer sp.Close()
		jobs := map[string]Job{}
		spent, done := map[string]float64{}, map[string]int{}
		deadline := time.Now().Add(60 * time.Second)
		for _, j := range sp.store.snapshot() {
			for !j.terminal() {
				if time.Now().After(deadline) {
					t.Fatalf("%s: job %s still %s after 60s", name, j.ID, j.State)
				}
				time.Sleep(5 * time.Millisecond)
				j, _, _ = sp.store.get(j.ID)
			}
			jobs[j.ID] = j
			if j.State == JobDone {
				spent[j.Tenant] += j.Epsilon
				done[j.Tenant]++
				if j.SpentEpsilon != j.Epsilon {
					t.Fatalf("%s: done job %s spent %g of its certified %g", name, j.ID, j.SpentEpsilon, j.Epsilon)
				}
			} else if j.SpentEpsilon != 0 {
				t.Fatalf("%s: %s job %s spent %g", name, j.State, j.ID, j.SpentEpsilon)
			}
		}
		for _, b := range sp.ledger.Tenants() {
			if b.EpsSpent != spent[b.TenantID] || b.EpsReserved != 0 || b.DelReserved != 0 || b.Queries != done[b.TenantID] {
				t.Fatalf("%s: balance %+v, want ε spent = %g over %d done jobs and nothing reserved",
					name, b, spent[b.TenantID], done[b.TenantID])
			}
		}
		return jobs
	}

	// The whole log is the uncrashed session: its restart finishes the job
	// the drain left queued, and its digests are the baseline.
	baseline := settle("the whole log", bytes.Join(lines, nil))
	if len(baseline) != 8 {
		t.Fatalf("the session's log holds %d jobs, want 8", len(baseline))
	}
	digests := map[string]string{}
	for id, j := range baseline {
		if j.State == JobDone {
			digests[id] = j.ResultDigest
		}
	}
	if len(digests) != 5 || baseline[queued.ID].State != JobCanceled {
		t.Fatalf("baseline: %d done jobs and the canceled job %s, want 5 and canceled", len(digests), baseline[queued.ID].State)
	}

	for k := 0; k < len(lines); k += prefixStride {
		prefix := bytes.Join(lines[:k], nil)
		// What the prefix itself says of each job, before any recovery.
		var before replay
		for _, line := range lines[:k] {
			var r ledger.Record
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			before.fold(&r)
		}
		torn := append(append([]byte(nil), prefix...), lines[k][:len(lines[k])/2]...)
		for name, log := range map[string][]byte{
			fmt.Sprintf("first %d records", k):                         prefix,
			fmt.Sprintf("first %d records + a torn record %d", k, k+1): torn,
		} {
			after := settle(name, log)
			if len(after) != len(before.jobs) {
				t.Fatalf("%s: %d jobs after recovery, the prefix holds %d", name, len(after), len(before.jobs))
			}
			for _, was := range before.jobs {
				now := after[was.ID]
				if was.terminal() && (now.State != was.State || now.ErrorCode != was.ErrorCode || now.ResultDigest != was.ResultDigest) {
					t.Fatalf("%s: job %s was %s/%s digest %q, is %s/%s digest %q — a settled job moved",
						name, was.ID, was.State, was.ErrorCode, was.ResultDigest, now.State, now.ErrorCode, now.ResultDigest)
				}
				if now.State != JobDone {
					continue
				}
				// A job the session canceled runs to done when the prefix
				// ends before the cancel; every prefix that runs it must
				// agree on what it released.
				if want, seen := digests[now.ID]; !seen {
					digests[now.ID] = now.ResultDigest
				} else if now.ResultDigest != want {
					t.Fatalf("%s: job %s digest %s, every other run of it gave %s", name, now.ID, now.ResultDigest, want)
				}
			}
		}
	}
}

// FuzzJournalReplay feeds arbitrary bytes to the gateway's log: opening it
// and folding it into jobs must never panic and must fail only with the
// WAL's typed error; and whenever the file is accepted it must keep working —
// it compacts from the folded jobs without moving a balance, takes an append,
// and reopens.
func FuzzJournalReplay(f *testing.F) {
	mk := func(recs ...*ledger.Record) []byte {
		path := filepath.Join(f.TempDir(), "seed")
		l, err := ledger.Open(path, ledger.Options{})
		if err != nil {
			f.Fatal(err)
		}
		for _, r := range recs {
			if err := l.Append(r, nil); err != nil {
				f.Fatal(err)
			}
		}
		l.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(mk(
		&ledger.Record{Op: ledger.OpCreate, Tenant: "a", Eps: 5},
		&ledger.Record{Op: ledger.OpReserve, Tenant: "a", Job: "j1", Eps: 1, Source: "q", JobSeq: 1},
		&ledger.Record{Op: ledger.OpClaim, Tenant: "a", Job: "j1"},
		&ledger.Record{Op: ledger.OpCommit, Tenant: "a", Job: "j1", Eps: 1, Digest: "d"},
		&ledger.Record{Op: ledger.OpReserve, Tenant: "a", Job: "j2", Eps: 1, Source: "q", JobSeq: 2},
	))
	f.Add(mk(&ledger.Record{Op: ledger.OpCreate, Tenant: "a", Eps: 5}))
	f.Add([]byte(`{"seq":1,"op":"reserve","tenant":"a","job":"j1"`))
	f.Add([]byte("not json\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := t.TempDir() + "/ledger"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var folded replay
		l, err := ledger.Open(path, ledger.Options{Replay: folded.fold})
		if err != nil {
			if !errors.Is(err, ledger.ErrCorrupt) {
				t.Fatalf("open failed with untyped error: %v", err)
			}
			return
		}
		balances := l.Tenants()
		jobs := make([]Job, len(folded.jobs))
		for i, j := range folded.jobs {
			jobs[i] = *j
		}
		if err := l.Compact(func() []*ledger.Record { return jobRecords(jobs) }); err != nil {
			t.Fatalf("compaction of an accepted ledger from its own jobs: %v", err)
		}
		if err := l.EnsureTenant("fuzz-probe", 1, 0); err != nil {
			t.Fatalf("append on accepted ledger: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var again replay
		l2, err := ledger.Open(path, ledger.Options{Replay: again.fold})
		if err != nil {
			t.Fatalf("reopen of accepted ledger: %v", err)
		}
		defer l2.Close()
		for _, b := range balances {
			if got, _ := l2.Balance(b.TenantID); got != b {
				t.Fatalf("balance of %q moved across compaction + reopen: %+v, was %+v", b.TenantID, got, b)
			}
		}
		if len(again.jobs) != len(folded.jobs) {
			t.Fatalf("%d jobs after compaction + reopen, %d before", len(again.jobs), len(folded.jobs))
		}
	})
}
