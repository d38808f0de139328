package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arboretum/internal/faults"
)

// trec is the test record: a key/value increment whose checksum binds
// (seq, k, v).
type trec struct {
	Seq uint64 `json:"seq"`
	K   string `json:"k"`
	V   int    `json:"v"`
	Sum string `json:"sum"`
}

func (r *trec) WALSeq() uint64     { return r.Seq }
func (r *trec) SetWALSeq(s uint64) { r.Seq = s }
func (r *trec) WALSum() string     { return r.Sum }
func (r *trec) SetWALSum(s string) { r.Sum = s }
func (r *trec) WALDesc() string    { return "trec " + r.K }
func (r *trec) WALChecksum() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%d", r.Seq, r.K, r.V)))
	return hex.EncodeToString(h[:8])
}

// openT opens a test log folding records into m.
func openT(t *testing.T, path string, m map[string]int, opts Options) (*Log[*trec], error) {
	t.Helper()
	return Open(path, func() *trec { return new(trec) }, func(r *trec) error {
		if r.K == "poison" {
			return errors.New("poison record")
		}
		m[r.K] += r.V
		return nil
	}, opts)
}

// line renders one record the way Append would, with seq and a valid
// checksum.
func line(seq uint64, k string, v int) string {
	r := &trec{Seq: seq, K: k, V: v}
	r.Sum = r.WALChecksum()
	return fmt.Sprintf(`{"seq":%d,"k":%q,"v":%d,"sum":%q}`+"\n", r.Seq, r.K, r.V, r.Sum)
}

func TestAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	m := map[string]int{}
	l, err := openT(t, path, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []string{"a", "b", "a"} {
		if err := l.Append(&trec{K: k, V: i + 1}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if l.Seq() != 3 {
		t.Fatalf("seq = %d, want 3", l.Seq())
	}
	fi, _ := os.Stat(path)
	if l.Size() != fi.Size() {
		t.Fatalf("Size() = %d, file is %d", l.Size(), fi.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := map[string]int{}
	l2, err := openT(t, path, m2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if m2["a"] != 4 || m2["b"] != 2 || l2.Seq() != 3 {
		t.Fatalf("replay state = %v seq %d, want a=4 b=2 seq=3", m2, l2.Seq())
	}
}

// TestTornTail: the three torn-tail shapes — an unterminated final line, an
// undecodable terminated final line, and a stale-sequence final record — are
// all truncated on open; the intact prefix survives.
func TestTornTail(t *testing.T) {
	prefix := line(1, "a", 1) + line(2, "b", 2)
	for name, tail := range map[string]string{
		"unterminated": `{"seq":3,"k":"c","v`,
		"undecodable":  "garbage that is not json\n",
		"stale-seq":    line(2, "b", 2), // a replayed duplicate of record 2
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.wal")
			if err := os.WriteFile(path, []byte(prefix+tail), 0o644); err != nil {
				t.Fatal(err)
			}
			m := map[string]int{}
			l, err := openT(t, path, m, Options{})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer l.Close()
			if m["a"] != 1 || m["b"] != 2 || l.Seq() != 2 {
				t.Fatalf("state = %v seq %d, want intact prefix only", m, l.Seq())
			}
			if l.Size() != int64(len(prefix)) {
				t.Fatalf("size = %d, want %d (tail truncated)", l.Size(), len(prefix))
			}
			// The next append lands cleanly on the truncated boundary.
			if err := l.Append(&trec{K: "c", V: 3}); err != nil {
				t.Fatal(err)
			}
			if l.Seq() != 3 {
				t.Fatalf("seq after append = %d, want 3", l.Seq())
			}
		})
	}
}

// TestCorruptRefused: a decodable, newline-terminated record that fails its
// checksum — interior or final — or an interior sequence break refuses the
// whole log with ErrCorrupt. Truncating it would silently rewrite durable
// history.
func TestCorruptRefused(t *testing.T) {
	for name, content := range map[string]string{
		"interior-checksum": line(1, "a", 1) + strings.Replace(line(2, "b", 2), `"v":2`, `"v":9`, 1) + line(3, "c", 3),
		"final-checksum":    line(1, "a", 1) + strings.Replace(line(2, "b", 2), `"v":2`, `"v":9`, 1),
		"interior-seq-skip": line(1, "a", 1) + line(3, "c", 3) + line(4, "d", 4),
		"apply-failure":     line(1, "a", 1) + line(2, "poison", 0),
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.wal")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := openT(t, path, map[string]int{}, Options{})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestLocked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := openT(t, path, map[string]int{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openT(t, path, map[string]int{}, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open = %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := openT(t, path, map[string]int{}, Options{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	l2.Close()
}

// TestCrashStages: stage 0 dies before any byte (the record is simply
// absent after reopen); stage 1 dies after a torn half-write (truncated on
// reopen). Both poison the log and release the flock like a real death.
func TestCrashStages(t *testing.T) {
	for stage := 0; stage <= 1; stage++ {
		t.Run(fmt.Sprintf("stage%d", stage), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.wal")
			plan := faults.New(1).ForceAt(faults.WALCrash, 2, stage)
			m := map[string]int{}
			l, err := openT(t, path, m, Options{Crash: plan, CrashKind: faults.WALCrash})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(&trec{K: "a", V: 1}); err != nil {
				t.Fatal(err)
			}
			if err := l.Append(&trec{K: "b", V: 2}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("append at crash point = %v, want ErrCrashed", err)
			}
			// Poisoned until reopened; the in-memory fold never saw b.
			if err := l.Append(&trec{K: "c", V: 3}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("append after crash = %v, want ErrCrashed", err)
			}
			if m["b"] != 0 {
				t.Fatalf("crashed record applied: %v", m)
			}
			if n := len(plan.Fired()); n != 1 {
				t.Fatalf("fired log has %d entries, want 1", n)
			}
			// The "restarted process" can take the lock and sees only record 1
			// (stage 1's torn half-line is truncated).
			m2 := map[string]int{}
			l2, err := openT(t, path, m2, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			if m2["a"] != 1 || m2["b"] != 0 || l2.Seq() != 1 {
				t.Fatalf("recovered state = %v seq %d, want only record 1", m2, l2.Seq())
			}
		})
	}
}

// TestRewrite: compaction atomically replaces the log, renumbered from 1;
// appends continue from the new sequence and a reopen sees exactly the
// rewritten history.
func TestRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	m := map[string]int{}
	l, err := openT(t, path, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(&trec{K: "a", V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Collapse the four increments into one record.
	if err := l.Rewrite([]*trec{{K: "a", V: 4}}); err != nil {
		t.Fatal(err)
	}
	if l.Seq() != 1 {
		t.Fatalf("seq after rewrite = %d, want 1", l.Seq())
	}
	if err := l.Append(&trec{K: "b", V: 7}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".rewrite"); !os.IsNotExist(err) {
		t.Fatalf("rewrite temp file left behind: %v", err)
	}
	m2 := map[string]int{}
	l2, err := openT(t, path, m2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if m2["a"] != 4 || m2["b"] != 7 || l2.Seq() != 2 {
		t.Fatalf("replay after rewrite = %v seq %d, want a=4 b=7 seq=2", m2, l2.Seq())
	}
}

// TestRewriteCrashStages: a death inside Rewrite — on a torn temp file
// (stage 0) or between the temp file's fsync and the rename (stage 1),
// addressed as the record after the last durable one — leaves the old log
// whole: the reopen replays it, and the next Rewrite is not bothered by the
// leftover temp file.
func TestRewriteCrashStages(t *testing.T) {
	for stage := 0; stage <= 1; stage++ {
		t.Run(fmt.Sprintf("stage%d", stage), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.wal")
			plan := faults.New(1).ForceAt(faults.WALCrash, 4, stage)
			l, err := openT(t, path, map[string]int{}, Options{Crash: plan, CrashKind: faults.WALCrash})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := l.Append(&trec{K: "a", V: 1}); err != nil {
					t.Fatal(err)
				}
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Rewrite([]*trec{{K: "a", V: 3}}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("rewrite at crash point = %v, want ErrCrashed", err)
			}
			if err := l.Append(&trec{K: "b", V: 1}); !errors.Is(err, ErrCrashed) {
				t.Fatalf("append after crashed rewrite = %v, want ErrCrashed", err)
			}
			if n := len(plan.Fired()); n != 1 {
				t.Fatalf("fired log has %d entries, want 1", n)
			}
			if after, _ := os.ReadFile(path); string(after) != string(before) {
				t.Fatalf("crashed rewrite touched the log:\n%s\nwas\n%s", after, before)
			}
			m2 := map[string]int{}
			l2, err := openT(t, path, m2, Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			if m2["a"] != 3 || l2.Seq() != 3 {
				t.Fatalf("recovered state = %v seq %d, want the three old records", m2, l2.Seq())
			}
			if err := l2.Rewrite([]*trec{{K: "a", V: 3}}); err != nil {
				t.Fatalf("rewrite over the leftover temp file: %v", err)
			}
			if l2.Seq() != 1 {
				t.Fatalf("seq after rewrite = %d, want 1", l2.Seq())
			}
		})
	}
}

// TestApplyFailurePoisons: a record that is durable but cannot be applied is
// a programming error — the append reports it, the log poisons (memory and
// disk would otherwise diverge), and a reopen refuses with ErrCorrupt.
func TestApplyFailurePoisons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, err := openT(t, path, map[string]int{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&trec{K: "poison"}); err == nil || errors.Is(err, ErrCrashed) {
		t.Fatalf("append of unapplyable record = %v, want apply error", err)
	}
	if err := l.Append(&trec{K: "a", V: 1}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after poison = %v, want ErrCrashed", err)
	}
	l.Close()
	if _, err := openT(t, path, map[string]int{}, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reopen = %v, want ErrCorrupt (durable unapplyable record)", err)
	}
}

// FuzzReplay feeds arbitrary bytes to Open: it must never panic, and
// whenever it accepts the file the log must keep working (append, close,
// reopen to the same sequence).
func FuzzReplay(f *testing.F) {
	f.Add([]byte(line(1, "a", 1) + line(2, "b", 2)))
	f.Add([]byte(line(1, "a", 1) + `{"seq":2,"k":"b"`))
	f.Add([]byte("garbage\n"))
	f.Add([]byte{})
	f.Add([]byte("{}\n{}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m := map[string]int{}
		l, err := openT(t, path, m, Options{})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open failed with untyped error: %v", err)
			}
			return
		}
		seq := l.Seq()
		if err := l.Append(&trec{K: "z", V: 1}); err != nil {
			t.Fatalf("append on accepted log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := openT(t, path, map[string]int{}, Options{})
		if err != nil {
			t.Fatalf("reopen of accepted log: %v", err)
		}
		defer l2.Close()
		if l2.Seq() != seq+1 {
			t.Fatalf("reopen seq = %d, want %d", l2.Seq(), seq+1)
		}
	})
}
