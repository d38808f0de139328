package faults

import (
	"math"
	"sync"
	"testing"
)

// Decisions are pure functions of (seed, kind, coordinates): the same query
// replays the same schedule, different seeds give different schedules.
func TestFiresDeterministic(t *testing.T) {
	a := New(7).SetRate(UploadTimeout, 0.3)
	b := New(7).SetRate(UploadTimeout, 0.3)
	for dev := 0; dev < 200; dev++ {
		for attempt := 0; attempt < 3; attempt++ {
			if a.Fires(UploadTimeout, dev, attempt) != b.Fires(UploadTimeout, dev, attempt) {
				t.Fatalf("decision (%d,%d) not deterministic", dev, attempt)
			}
		}
	}
	c := New(8).SetRate(UploadTimeout, 0.3)
	diff := 0
	for dev := 0; dev < 200; dev++ {
		if a.Fires(UploadTimeout, dev, 0) != c.Fires(UploadTimeout, dev, 0) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

// The empirical fire rate tracks the configured rate.
func TestFiresRate(t *testing.T) {
	p := New(42).SetRate(MemberDropout, 0.25)
	fired := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if p.Fires(MemberDropout, i, 0, 0) {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-0.25) > 0.03 {
		t.Fatalf("empirical rate %g, want ~0.25", got)
	}
}

// Kinds and coordinates index independent streams: a fault firing for one
// kind says nothing about another kind at the same coordinates.
func TestKindsIndependent(t *testing.T) {
	p := New(3).SetRate(UploadTimeout, 0.5).SetRate(DealerFailure, 0.5)
	same := 0
	const n = 400
	for i := 0; i < n; i++ {
		if p.Fires(UploadTimeout, i) == p.Fires(DealerFailure, i) {
			same++
		}
	}
	if same == 0 || same == n {
		t.Fatalf("kinds perfectly correlated: %d/%d agreements", same, n)
	}
}

func TestForce(t *testing.T) {
	p := New(1).Force(ShardCrash, 2)
	if !p.Fires(ShardCrash, 2, 0, 0) {
		t.Fatal("forced shard@2 did not fire at (2, 0, 0)")
	}
	if p.Fires(ShardCrash, 2, 0, 1) {
		t.Fatal("forced shard@2 fired on a retry attempt")
	}
	if p.Fires(ShardCrash, 1, 0, 0) {
		t.Fatal("crash fired at an unforced shard")
	}
}

func TestNilPlanSafe(t *testing.T) {
	var p *Plan
	if p.Fires(UploadTimeout, 1) {
		t.Fatal("nil plan fired")
	}
	if p.Pick(5, MemberDropout, 0) != 0 {
		t.Fatal("nil plan picked nonzero")
	}
	p.Record(Fault{Kind: UploadTimeout})
	if got := p.Fired(); got != nil {
		t.Fatalf("nil plan log = %v", got)
	}
	if p.String() != "" {
		t.Fatal("nil plan not empty")
	}
}

func TestPickDeterministicInRange(t *testing.T) {
	p := New(9)
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		v := p.Pick(5, MemberDropout, i, 0, 3)
		if v < 0 || v >= 5 {
			t.Fatalf("pick %d out of range", v)
		}
		if v != p.Pick(5, MemberDropout, i, 0, 3) {
			t.Fatal("pick not deterministic")
		}
		seen[v] = true
	}
	if len(seen) < 3 {
		t.Fatalf("picks not spread: %v", seen)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	spec := "seed=7,upload=0.05,dropout=0.01,dealer=0.1,shard@1,shard@3"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.seed != 7 {
		t.Fatalf("seed = %d", p.seed)
	}
	if !p.Fires(ShardCrash, 3, 0, 0) {
		t.Fatal("parsed forced shard@3 did not fire")
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", p.String(), err)
	}
	for dev := 0; dev < 100; dev++ {
		if p.Fires(UploadTimeout, dev, 0) != q.Fires(UploadTimeout, dev, 0) {
			t.Fatal("round-tripped plan decides differently")
		}
	}
	if p.String() != q.String() {
		t.Fatalf("String not canonical: %q vs %q", p.String(), q.String())
	}
}

// The "wal" kind (ledger append crashes) parses, round-trips, and follows
// the Force contract: a forced wal@N fires only at stage 0 of record N.
func TestParseWALKind(t *testing.T) {
	p, err := Parse("seed=3,wal=0.5,wal@4")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fires(WALCrash, 4, 0) {
		t.Fatal("forced wal@4 did not fire before record 4")
	}
	if WALCrash.String() != "wal" {
		t.Fatalf("WALCrash.String() = %q", WALCrash)
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", p.String(), err)
	}
	for seq := 1; seq < 50; seq++ {
		for stage := 0; stage < 2; stage++ {
			if p.Fires(WALCrash, seq, stage) != q.Fires(WALCrash, seq, stage) {
				t.Fatalf("round-tripped plan decides differently at (%d, %d)", seq, stage)
			}
		}
	}
}

// The "shard" kind (streaming-ingest shard-aggregator crashes) parses,
// round-trips, and follows the Force contract: a forced shard@N fires only at
// shard N's first fold attempt of its first batch.
func TestParseShardKind(t *testing.T) {
	p, err := Parse("seed=5,shard=0.25,shard@2")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Fires(ShardCrash, 2, 0, 0) {
		t.Fatal("forced shard@2 did not fire at shard 2's first batch")
	}
	if p.Fires(ShardCrash, 2, 1, 0) && p.rates[ShardCrash] == 0 {
		t.Fatal("forced shard@2 fired at a later batch")
	}
	if ShardCrash.String() != "shard" {
		t.Fatalf("ShardCrash.String() = %q", ShardCrash)
	}
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", p.String(), err)
	}
	for shard := 0; shard < 8; shard++ {
		for batch := 0; batch < 16; batch++ {
			for attempt := 0; attempt < 3; attempt++ {
				if p.Fires(ShardCrash, shard, batch, attempt) != q.Fires(ShardCrash, shard, batch, attempt) {
					t.Fatalf("round-tripped plan decides differently at (%d, %d, %d)", shard, batch, attempt)
				}
			}
		}
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if p, err := Parse("  "); err != nil || p != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", p, err)
	}
	for _, bad := range []string{"bogus=0.1", "upload=2", "upload", "shard@-1", "seed=x", "frob@2", "crash@1", "=0.1", "@1"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// The log tolerates concurrent Record calls (pool workers) and Fired returns
// copies that cannot alias internal state.
func TestRecordConcurrent(t *testing.T) {
	p := New(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.Record(Fault{Kind: UploadTimeout, Idx: []int{i, j}})
			}
		}(i)
	}
	wg.Wait()
	got := p.Fired()
	if len(got) != 400 {
		t.Fatalf("log has %d entries, want 400", len(got))
	}
	got[0].Idx[0] = -99
	if p.Fired()[0].Idx[0] == -99 {
		t.Fatal("Fired aliases internal log")
	}
}

// Kind numbers are part of the replay contract: the kind is hashed into
// every Fires and Pick decision, so renumbering one would silently change
// every seeded schedule. The masks are Fires(k, i, 1) for i < 64 at seed 7,
// rate 0.25, recorded before the aggregator-crash kind (value 3) was retired.
func TestKindValuesPinned(t *testing.T) {
	pinned := []struct {
		kind  Kind
		value int
		name  string
		mask  uint64
		pick  int
	}{
		{UploadTimeout, 0, "upload", 0x8a18817000a62031, 291},
		{MemberDropout, 1, "dropout", 0x013484c404903c28, 98},
		{DealerFailure, 2, "dealer", 0x0110428318a00e01, 403},
		{WALCrash, 4, "wal", 0x10a0011ead0d1002, 821},
		{ShardCrash, 5, "shard", 0x30e00814d80c0001, 4},
		{DaemonCrash, 6, "daemon", 0x416512a848034095, 853},
	}
	for _, pin := range pinned {
		if int(pin.kind) != pin.value || pin.kind.String() != pin.name {
			t.Errorf("kind %q = %d, pinned %q = %d", pin.kind, int(pin.kind), pin.name, pin.value)
		}
		p := New(7).SetRate(pin.kind, 0.25)
		var mask uint64
		for i := 0; i < 64; i++ {
			if p.Fires(pin.kind, i, 1) {
				mask |= 1 << uint(i)
			}
		}
		if mask != pin.mask {
			t.Errorf("%s: seeded schedule %#016x, pinned %#016x", pin.kind, mask, pin.mask)
		}
		if got := p.Pick(1000, pin.kind, 3, 1); got != pin.pick {
			t.Errorf("%s: Pick = %d, pinned %d", pin.kind, got, pin.pick)
		}
	}
	// The retired value names no kind and never fires.
	if Kind(3).valid() || New(7).Fires(Kind(3), 1, 0) {
		t.Error("retired kind 3 is live")
	}
	if _, ok := kindByName("crash"); ok {
		t.Error(`retired spec name "crash" still parses`)
	}
}
