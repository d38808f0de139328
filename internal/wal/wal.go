// Package wal is the write-ahead-log machinery behind Arboretum's durable
// state: checksummed JSON-lines records, fsync-before-apply ordering,
// exclusive advisory locking, and crash-aware replay. It has one client in
// the tree — internal/ledger, the gateway's only durable file — and keeps
// the durability rules apart from what the records mean:
//
//   - every record is one JSON line carrying a sequence number and a
//     checksum over all its other fields; Append assigns both, writes the
//     line, fsyncs, and only then applies the record to in-memory state —
//     the disk is never behind memory;
//   - Open takes an exclusive flock (ErrLocked when another live process
//     holds the file) and replays the log through the same apply function;
//   - replay truncates a *torn tail* — an unterminated or undecodable final
//     line, the signature of a crash mid-append — but refuses the whole log
//     with ErrCorrupt for any decodable, newline-terminated record that
//     fails its checksum, sequence, or apply, even on the final line: a
//     torn append cannot include the trailing newline, so such a record was
//     durably written whole and silently dropping it would rewrite history;
//   - Rewrite replaces the whole log atomically (temp file, fsync, rename):
//     compaction leaves the old log or the new one, never a mix;
//   - simulated process deaths are injectable into both write paths through
//     an internal/faults plan. In Append, stage 0 dies before any byte is
//     written and stage 1 after a torn half-write; in Rewrite — addressed
//     as the record after the last durable one — stage 0 dies on a torn
//     temp file and stage 1 between the temp file's fsync and the rename.
//     Every death closes the descriptor the way a real one would (releasing
//     the lock so a "restarted" process can reopen) and poisons the log
//     with ErrCrashed until reopened. A write or fsync that really fails
//     poisons it the same way: what reached the disk is unknown until a
//     reopen's replay re-establishes the intact prefix.
//
// The record type is supplied by the caller via the Record interface; the
// checksum algorithm is the caller's too (it is part of the log's on-disk
// format), so ledger files written before this package existed replay
// byte-for-byte.
package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"

	"arboretum/internal/faults"
)

// Typed failure modes.
var (
	// ErrCorrupt means replay found a durably written record that is
	// syntactically broken, fails its checksum, or cannot be applied. The
	// log refuses to guess at state.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrCrashed means the log is dead: a faults plan injected a process
	// death into a write, a write or fsync really failed, or the log was
	// closed. Nothing more becomes durable until it is reopened (replayed).
	ErrCrashed = errors.New("wal: log crashed; reopen to recover")
	// ErrLocked means another live process holds the log file: Open refuses
	// rather than let two writers interleave conflicting sequence numbers.
	ErrLocked = errors.New("wal: log file held by another process")
)

// Record is one log line. Implementations are pointer types whose fields
// round-trip through encoding/json as a single line (strings with newlines
// are fine — JSON escapes them).
type Record interface {
	// WALSeq and SetWALSeq expose the record's sequence number; Append
	// assigns it (strictly increasing from 1) and replay validates it.
	WALSeq() uint64
	SetWALSeq(uint64)
	// WALSum and SetWALSum expose the stored checksum field.
	WALSum() string
	SetWALSum(string)
	// WALChecksum computes the canonical checksum over every field
	// including the sequence number and excluding the stored sum. It is
	// part of the log's on-disk format.
	WALChecksum() string
	// WALDesc is a short human label ("commit alice/j1") used in injected
	// crash notes.
	WALDesc() string
}

// Options configures Open.
type Options struct {
	// Crash injects simulated process deaths into Append and Rewrite, as
	// faults.WALCrash at (record sequence, stage); nil injects nothing.
	Crash *faults.Plan
}

// Log is a durable record log. Create one with Open. All methods are safe
// for concurrent use; Append serializes writers, and the apply callback
// runs under the log's mutex.
type Log[R Record] struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	seq    uint64
	size   int64 // bytes of the durable intact prefix
	newRec func() R
	apply  func(R) error
	crash  *faults.Plan
	dead   bool // poisoned by a crash, a failed write, an apply failure, or Close
}

// Open opens (creating if absent) the log at path, takes an exclusive
// advisory lock on it (ErrLocked when another process holds it), and
// replays it through apply. newRec allocates an empty record for each
// replayed line. A torn final line — unterminated or not decodable as a
// record — is truncated; any durably written record that fails validation
// fails with ErrCorrupt.
func Open[R Record](path string, newRec func() R, apply func(R) error, opts Options) (*Log[R], error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	// One writer per log: two processes replaying and appending to the same
	// file would interleave conflicting sequence numbers. The lock rides
	// the descriptor, so the kernel releases it on any process death.
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, path)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	l := &Log[R]{
		path:   path,
		newRec: newRec,
		apply:  apply,
		crash:  opts.Crash,
	}
	good, err := l.replay(data)
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (if any) so the next append starts on a line
	// boundary, then position at the end of the intact prefix.
	if err := f.Truncate(int64(good)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l.f = f
	l.size = int64(good)
	return l, nil
}

// replay applies every intact record of data and returns the byte length of
// the intact prefix. The final record may be torn (crash mid-append); any
// earlier bad record — or a whole, decodable final record that fails its
// checksum — is ErrCorrupt.
func (l *Log[R]) replay(data []byte) (int, error) {
	good := 0
	for len(data) > 0 {
		line := data
		rest := []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		} else {
			// No terminating newline: the append died mid-line.
			return good, nil
		}
		r := l.newRec()
		if err := json.Unmarshal(line, r); err != nil {
			if len(rest) == 0 {
				return good, nil // undecodable final line: a torn append
			}
			return 0, fmt.Errorf("%w: record %d (byte offset %d)", ErrCorrupt, l.seq+1, good)
		}
		if r.WALSum() != r.WALChecksum() {
			// A decodable, newline-terminated record was written whole — a
			// torn append can't include the trailing newline. A checksum
			// failure here is corruption of a durable record, even on the
			// final line: refuse to guess.
			return 0, fmt.Errorf("%w: record %d (byte offset %d): checksum mismatch", ErrCorrupt, l.seq+1, good)
		}
		if r.WALSeq() != l.seq+1 {
			if len(rest) == 0 {
				return good, nil // a replayed-but-stale tail record
			}
			return 0, fmt.Errorf("%w: sequence %d after %d", ErrCorrupt, r.WALSeq(), l.seq)
		}
		if err := l.apply(r); err != nil {
			return 0, fmt.Errorf("%w: record %d: %v", ErrCorrupt, r.WALSeq(), err)
		}
		l.seq = r.WALSeq()
		good += len(line) + 1
		data = rest
	}
	return good, nil
}

// Append assigns the next sequence number and the checksum, writes the
// record durably (fsync), and only then applies it, so the disk is never
// behind memory. The two crash stages straddle the write: stage 0 dies
// before any byte reaches the file, stage 1 after a torn half-record —
// both poison the log like a real process death.
func (l *Log[R]) Append(r R) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return ErrCrashed
	}
	r.SetWALSeq(l.seq + 1)
	r.SetWALSum(r.WALChecksum())
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("wal: marshal: %w", err)
	}
	line = append(line, '\n')
	seq := r.WALSeq()
	if l.crash.Fires(faults.WALCrash, int(seq), 0) {
		l.die(seq, 0, r.WALDesc(), "crashed before WAL append")
		return fmt.Errorf("%w (before record %d)", ErrCrashed, seq)
	}
	if l.crash.Fires(faults.WALCrash, int(seq), 1) {
		// Torn write: half the line reaches the disk, no newline, no fsync.
		_, werr := l.f.Write(line[:len(line)/2])
		l.die(seq, 1, r.WALDesc(), "crashed mid-append (torn record)")
		return errors.Join(fmt.Errorf("%w (torn record %d)", ErrCrashed, seq), werr)
	}
	// A failed write or fsync leaves an unknown tail on disk; appending past
	// it could bury a torn line mid-file, so the log dies here too.
	if _, err := l.f.Write(line); err != nil {
		l.dead = true
		return fmt.Errorf("%w: append record %d: %v", ErrCrashed, seq, err)
	}
	if err := l.f.Sync(); err != nil {
		l.dead = true
		return fmt.Errorf("%w: fsync record %d: %v", ErrCrashed, seq, err)
	}
	if err := l.apply(r); err != nil {
		// The record is durable but inconsistent with memory — a programming
		// error, not an I/O race; poison the log rather than diverge.
		l.dead = true
		return fmt.Errorf("wal: apply: %w", err)
	}
	l.seq = seq
	l.size += int64(len(line))
	return nil
}

// die records the injected crash and poisons the log until reopened. The
// descriptor is closed the way the kernel would on a real process death —
// in particular releasing the advisory lock so the "restarted" process can
// Open the file.
func (l *Log[R]) die(seq uint64, stage int, desc, note string) {
	l.dead = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.crash.Record(faults.Fault{
		Kind: faults.WALCrash, Idx: []int{int(seq), stage},
		Note: fmt.Sprintf("%s: %s", desc, note),
	})
}

// Rewrite atomically replaces the log's contents with recs, renumbered
// from 1 (compaction). The records are written to a temporary file in the
// same directory, fsynced, and renamed over the log, so a crash during
// Rewrite leaves either the old log or the new one — never a mix. The
// caller's apply state must already reflect recs; Rewrite does not re-apply
// them. Its two crash stages are addressed as the record after the last
// durable one: stage 0 dies on a torn temp file, stage 1 between the temp
// file's fsync and the rename — both leave the old log in place.
func (l *Log[R]) Rewrite(recs []R) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return ErrCrashed
	}
	var buf bytes.Buffer
	for i, r := range recs {
		r.SetWALSeq(uint64(i) + 1)
		r.SetWALSum(r.WALChecksum())
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("wal: rewrite marshal: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmpPath := l.path + ".rewrite"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite: %w", err)
	}
	// abandon drops the half-built replacement; the log itself is untouched.
	abandon := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	// Lock the replacement before it becomes visible under the log's path:
	// the flock rides the open descriptor across the rename, so there is no
	// window where another process could grab the new inode.
	if err := syscall.Flock(int(tmp.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return abandon(fmt.Errorf("wal: rewrite lock: %w", err))
	}
	at := l.seq + 1
	desc := fmt.Sprintf("rewrite of %d records", len(recs))
	if l.crash.Fires(faults.WALCrash, int(at), 0) {
		_, werr := tmp.Write(buf.Bytes()[:buf.Len()/2])
		tmp.Close()
		l.die(at, 0, desc, "crashed mid-rewrite (torn temp file)")
		return errors.Join(fmt.Errorf("%w (mid-rewrite at record %d)", ErrCrashed, at), werr)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		return abandon(fmt.Errorf("wal: rewrite: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return abandon(fmt.Errorf("wal: rewrite fsync: %w", err))
	}
	if l.crash.Fires(faults.WALCrash, int(at), 1) {
		tmp.Close()
		l.die(at, 1, desc, "crashed between the temp file's fsync and the rename")
		return fmt.Errorf("%w (before the rewrite's rename at record %d)", ErrCrashed, at)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		return abandon(fmt.Errorf("wal: rewrite rename: %w", err))
	}
	// Make the rename itself durable.
	if dir, err := os.Open(dirOf(l.path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	if l.f != nil {
		l.f.Close()
	}
	l.f = tmp
	l.seq = uint64(len(recs))
	l.size = int64(buf.Len())
	return nil
}

// dirOf returns the directory containing path ("." when path is bare).
func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			if i == 0 {
				return "/"
			}
			return path[:i]
		}
	}
	return "."
}

// Path returns the log file path.
func (l *Log[R]) Path() string { return l.path }

// Seq returns the sequence number of the last durable record.
func (l *Log[R]) Seq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Size returns the byte length of the durable intact log.
func (l *Log[R]) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close flushes and closes the log file. The log must not be used after.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	l.dead = true
	return err
}
