package ledger

import (
	"errors"
	"path/filepath"
	"testing"

	"arboretum/internal/faults"
)

// TestForcedCrashBeforeCommit is the mid-commit crash of the service
// contract: the daemon dies while appending the commit record (stage 0 of
// the "wal" fault), so the reservation is still held on disk. Replay
// restores it exactly and hands it to the Replay hook as a job in flight,
// and settling it fail-closed the way the gateway's startup recovery does
// for a job it cannot re-run — a commit at the reserved amount with an error
// code — charges the crashed query at its certified spend: the recovered
// balance is identical to the one a crash-free run would have reached.
func TestForcedCrashBeforeCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	plan, err := faults.Parse("seed=1,wal@3") // record 3 = the commit below
	if err != nil {
		t.Fatal(err)
	}
	l := openT(t, path, Options{Crash: plan})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil { // record 1
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j1", 1, 1e-9); err != nil { // record 2
		t.Fatal(err)
	}
	if err := l.Commit("alice", "j1", 1, 1e-9); !errors.Is(err, ErrCrashed) { // record 3: dies
		t.Fatalf("commit under wal@3 = %v, want ErrCrashed", err)
	}
	// The crashed ledger is poisoned: every further append refuses.
	if err := release(l, "alice", "j1", "after crash"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append on crashed ledger = %v, want ErrCrashed", err)
	}
	if fired := plan.Fired(); len(fired) != 1 || fired[0].Kind != faults.WALCrash {
		t.Fatalf("fired log = %v, want one WALCrash", fired)
	}

	// "Restart": replay keeps the reservation held, never silently released,
	// and the hook sees the job's whole durable life — one reserve.
	var replayed []Record
	r := openT(t, path, Options{Replay: func(rec *Record) { replayed = append(replayed, *rec) }})
	wantBalance(t, r, "alice", 0, 1, 0)
	if len(replayed) != 2 || replayed[1].Op != OpReserve || replayed[1].Job != "j1" ||
		replayed[1].Eps != 1 || replayed[1].Del != 1e-9 {
		t.Fatalf("replayed %+v, want create then alice/j1 reserved at (1, 1e-9)", replayed)
	}
	held := replayed[1]
	charge := &Record{Op: OpCommit, Tenant: held.Tenant, Job: held.Job, Eps: held.Eps, Del: held.Del, Code: "crashed"}
	if err := r.Append(charge, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(charge, nil); !errors.Is(err, ErrNoReservation) {
		t.Fatalf("second settlement = %v, want ErrNoReservation", err)
	}
	// Exact, not merely conservative: reservation == certificate spend.
	wantBalance(t, r, "alice", 1, 0, 1)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// A second replay of the recovered WAL lands on identical balances, and
	// the hook is not called for records appended after Open.
	if len(replayed) != 2 {
		t.Fatalf("Replay saw %d records, want only the 2 that Open replayed", len(replayed))
	}
	rr := openT(t, path, Options{})
	wantBalance(t, rr, "alice", 1, 0, 1)
}

// TestTornWriteCrash drives the stage-1 crash (half the record reaches the
// disk, no newline, no fsync) via a rate-based plan, then checks replay
// truncates the torn tail. The seed is searched so that for the crashing
// record the stage-0 draw misses and the stage-1 draw hits — behavior is
// deterministic per seed, so the search is too.
func TestTornWriteCrash(t *testing.T) {
	const seq = 3 // the commit record below
	var plan *faults.Plan
	for seed := uint64(1); seed < 200; seed++ {
		p := faults.New(seed).SetRate(faults.WALCrash, 0.4)
		if !p.Fires(faults.WALCrash, seq, 0) && p.Fires(faults.WALCrash, seq, 1) &&
			!p.Fires(faults.WALCrash, 1, 0) && !p.Fires(faults.WALCrash, 1, 1) &&
			!p.Fires(faults.WALCrash, 2, 0) && !p.Fires(faults.WALCrash, 2, 1) {
			plan = p
			break
		}
	}
	if plan == nil {
		t.Fatal("no seed under 200 yields a stage-1-only crash at record 3")
	}
	path := filepath.Join(t.TempDir(), "wal")
	l := openT(t, path, Options{Crash: plan})
	if err := l.CreateTenant("alice", 5, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := l.Reserve("alice", "j1", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit("alice", "j1", 2, 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("commit = %v, want ErrCrashed (torn write)", err)
	}

	// Replay: the torn commit never became durable, the reservation did.
	r := openT(t, path, Options{})
	wantBalance(t, r, "alice", 0, 2, 0)
	// The torn bytes were truncated: a fresh append replays cleanly.
	if err := r.Commit("alice", "j1", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	rr := openT(t, path, Options{})
	wantBalance(t, rr, "alice", 2, 0, 1)
}

// TestCrashSweep hammers a fixed op script under rate-based WAL crashes
// across many seeds. Whatever prefix survives, replay must (a) succeed,
// (b) be idempotent (two replays agree), and (c) never show spent+reserved
// above the allowance.
func TestCrashSweep(t *testing.T) {
	script := func(l *Ledger) error {
		if err := l.CreateTenant("alice", 4, 1e-6); err != nil {
			return err
		}
		for i, job := range []string{"j1", "j2", "j3"} {
			if err := l.Reserve("alice", job, 1, 1e-9); err != nil {
				return err
			}
			if i == 1 {
				if err := release(l, "alice", job, "failed"); err != nil {
					return err
				}
				continue
			}
			if err := l.Commit("alice", job, 1, 1e-9); err != nil {
				return err
			}
		}
		return nil
	}
	crashed := 0
	for seed := uint64(0); seed < 40; seed++ {
		path := filepath.Join(t.TempDir(), "wal")
		plan := faults.New(seed).SetRate(faults.WALCrash, 0.25)
		l, err := Open(path, Options{Crash: plan})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := script(l); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("seed %d: script failed with %v, want nil or ErrCrashed", seed, err)
			}
			crashed++
		}
		l.Close()

		r1, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		b1, ok := r1.Balance("alice")
		r1.Close()
		r2, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("seed %d: second replay: %v", seed, err)
		}
		b2, ok2 := r2.Balance("alice")
		r2.Close()
		if ok != ok2 || b1 != b2 {
			t.Fatalf("seed %d: replay not idempotent: %+v vs %+v", seed, b1, b2)
		}
		if ok && b1.EpsSpent+b1.EpsReserved > b1.EpsTotal+1e-9 {
			t.Fatalf("seed %d: oversubscribed after replay: %+v", seed, b1)
		}
	}
	if crashed == 0 {
		t.Fatal("sweep never crashed — rate/seed coverage is broken")
	}
	t.Logf("sweep: %d/40 seeds crashed mid-script", crashed)
}
