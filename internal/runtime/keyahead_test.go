package runtime

import (
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"arboretum/internal/ahe"
)

// keyDraw is one query key drawKey made: its modulus's fingerprint (the
// AuthCertificate's PublicKeyFP) and the encryptions its table was sized for.
type keyDraw struct {
	fp          [sha256.Size]byte
	encryptions int
}

// watchKeyDraws records every key drawKey makes until the test ends, and
// returns a reader of the draws so far. Tests that call it must not call
// t.Parallel: drawKey is package state.
func watchKeyDraws(t *testing.T) func() []keyDraw {
	t.Helper()
	var (
		mu    sync.Mutex
		draws []keyDraw
	)
	orig := drawKey
	drawKey = func(random io.Reader, bits, encryptions int) (*ahe.PrivateKey, error) {
		sk, err := orig(random, bits, encryptions)
		if err == nil {
			mu.Lock()
			draws = append(draws, keyDraw{fp: sha256.Sum256(sk.N.Bytes()), encryptions: encryptions})
			mu.Unlock()
		}
		return sk, err
	}
	t.Cleanup(func() { drawKey = orig })
	return func() []keyDraw {
		mu.Lock()
		defer mu.Unlock()
		return append([]keyDraw(nil), draws...)
	}
}

// The queries release the category-0 count of every device, or of a sample
// of them (ε = 1000 would overflow the sampling amplification); at ε ≥ 100
// the integer noise is 0 but with probability e^-50, so the release is the
// count itself.
const (
	aheadCount   = "h = sum(db); output(declassify(laplace(h[0], 1000)));"
	aheadSampled = "sampleUniform(0.5); h = sum(db); output(declassify(laplace(h[0], 100)));"
)

func aheadDeployment(t *testing.T) *Deployment {
	return smallDeployment(t, 64, 8, func(c *Config) {
		c.Data = func(int) int { return 0 }
		c.BudgetEpsilon = 1e4
	})
}

// checkCount holds a Run of aheadCount or aheadSampled to the exact count of
// the devices it summed.
func checkCount(t *testing.T, name string, res *Result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := int64(res.Accepted)
	if res.Sampled > 0 {
		want = int64(res.Sampled)
	}
	if got := res.Outputs[0].Int(); got != want {
		t.Errorf("%s: released %d, want %d", name, got, want)
	}
}

// TestKeyAheadNeverReused: consecutive queries on one deployment each run
// under a modulus no other query used, drawn for the query's own
// keyEncryptions. From the second query on, the next key is drawn beside the
// committee phase: the third query takes it, and a sampled query, whose rows
// are wider than the spare was sized for, drops it and draws its own, as does
// the count after it. The draws per query are the same at every worker count.
func TestKeyAheadNeverReused(t *testing.T) {
	draws := watchKeyDraws(t)
	d := aheadDeployment(t)
	if d.keyEncryptions(true) == d.keyEncryptions(false) {
		t.Fatal("a sampled query's key is sized like a count's at this shape")
	}
	steps := []struct {
		src   string
		draws int // keys drawn during the query: its own, and the one ahead
	}{
		{aheadCount, 1},   // first query: no key ahead
		{aheadCount, 2},   // draws its own and one ahead
		{aheadCount, 1},   // takes the spare, draws one ahead
		{aheadSampled, 2}, // drops the spare sized for a count
		{aheadCount, 2},   // drops the spare sized for a sample
	}
	used := map[[sha256.Size]byte]int{}
	for i, s := range steps {
		before := len(draws())
		res, err := d.Run(s.src, RunOptions{})
		checkCount(t, s.src, res, err)
		all := draws()
		if got := len(all) - before; got != s.draws {
			t.Errorf("query %d drew %d keys, want %d", i, got, s.draws)
		}
		fp := res.Auth.PublicKeyFP
		if prev, ok := used[fp]; ok {
			t.Fatalf("query %d reused query %d's modulus", i, prev)
		}
		used[fp] = i
		want := d.keyEncryptions(s.src == aheadSampled)
		found := false
		for _, k := range all {
			if k.fp == fp {
				found = true
				if k.encryptions != want {
					t.Errorf("query %d ran under a key sized for %d encryptions, want %d", i, k.encryptions, want)
				}
			}
		}
		if !found {
			t.Errorf("query %d ran under a key drawKey never drew", i)
		}
	}
}

// TestOneQueryDrawsOneKey: a deployment that runs one query — every gateway
// job — draws that query's key and no spare.
func TestOneQueryDrawsOneKey(t *testing.T) {
	draws := watchKeyDraws(t)
	d := aheadDeployment(t)
	res, err := d.Run(aheadCount, RunOptions{})
	checkCount(t, "one query", res, err)
	if n := len(draws()); n != 1 {
		t.Errorf("drew %d keys, want 1", n)
	}
	if d.spare.sk != nil {
		t.Error("a spare key outlived the deployment's only query")
	}
}

// closedDone is the Done channel of a canceled cancelAt.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// cancelAt is a context canceled at the at-th call of its Done method (never,
// for at = 0), which counts every call. The runtime asks Done once at each
// cancellation checkpoint and ingest batch, in a number fixed by the query
// and the deployment's shape, so the count one run takes cancels a later run
// of the same query at its last checkpoint.
type cancelAt struct {
	context.Context
	at    int64
	calls atomic.Int64
}

func (c *cancelAt) Done() <-chan struct{} {
	if n := c.calls.Add(1); c.at > 0 && n >= c.at {
		return closedDone
	}
	return nil
}

func (c *cancelAt) Err() error {
	if c.at > 0 && c.calls.Load() >= c.at {
		return context.Canceled
	}
	return nil
}

// TestCancelDuringCommitteePhase: a Run canceled after collection, while
// the next key is drawn beside it, fails with the context's error at a
// committee-phase checkpoint, and the deployment's next Run releases the
// right count under a modulus no earlier query used.
func TestCancelDuringCommitteePhase(t *testing.T) {
	draws := watchKeyDraws(t)
	d := aheadDeployment(t)
	res, err := d.Run(aheadCount, RunOptions{})
	checkCount(t, "first query", res, err)
	counter := &cancelAt{Context: context.Background()}
	res, err = d.Run(aheadCount, RunOptions{Ctx: counter})
	checkCount(t, "counted query", res, err)
	used := map[[sha256.Size]byte]bool{}
	for _, k := range draws() {
		used[k.fp] = true
	}

	_, err = d.Run(aheadCount, RunOptions{Ctx: &cancelAt{Context: context.Background(), at: counter.calls.Load()}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled at statement") && !strings.Contains(err.Error(), "canceled at vignette attempt") {
		t.Fatalf("run canceled outside the committee phase: %v", err)
	}

	res, err = d.Run(aheadCount, RunOptions{})
	checkCount(t, "query after the canceled one", res, err)
	if used[res.Auth.PublicKeyFP] {
		t.Error("the query after the canceled one reused an earlier modulus")
	}
}

// TestCancelDuringIngest: a Run canceled at its first ingest batch, the
// third Done call after the query-start and input-collection checkpoints,
// fails with the context's error at the ingest checkpoint, before the key
// hand-off, so no committee vignette runs.
func TestCancelDuringIngest(t *testing.T) {
	d := aheadDeployment(t)
	_, err := d.Run(aheadCount, RunOptions{Ctx: &cancelAt{Context: context.Background(), at: 3}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "canceled at ingest batch") {
		t.Fatalf("run canceled outside input collection: %v", err)
	}
	if d.Metrics.MPCRounds != 0 {
		t.Errorf("a run canceled during collection ran %d MPC rounds", d.Metrics.MPCRounds)
	}
}

// cancelAfterRelease is a context canceled once its deployment's query has
// opened a noised value: the first checkpoint after the query's first
// mechanism vignette observes it. Done reads the tally unlocked: the
// committee phase writes it on the goroutine whose checkpoints ask Done, and
// no other goroutine asks Done meanwhile.
type cancelAfterRelease struct {
	context.Context
	d *Deployment
}

func (c cancelAfterRelease) Done() <-chan struct{} {
	if len(c.d.spent) > 0 {
		return closedDone
	}
	return nil
}

func (c cancelAfterRelease) Err() error {
	if len(c.d.spent) > 0 {
		return context.Canceled
	}
	return nil
}

// TestCanceledRunFlushesCommittees: a Run canceled at the statement after
// its mechanism vignette has its committees' traffic in the metrics when it
// returns — the same MPC rounds and committee bytes as the query run to the
// end, whose last statement is public — and the next query adds exactly its
// own.
func TestCanceledRunFlushesCommittees(t *testing.T) {
	const src = "h = sum(db); x = declassify(laplace(h[0], 1000)); output(x);"
	d := aheadDeployment(t)
	traffic := func(ctx context.Context) (rounds int, bytes int64, err error) {
		r0, b0 := d.Metrics.MPCRounds, d.Metrics.CommitteeBytes
		_, err = d.Run(src, RunOptions{Ctx: ctx})
		return d.Metrics.MPCRounds - r0, d.Metrics.CommitteeBytes - b0, err
	}
	wantRounds, wantBytes, err := traffic(nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantRounds == 0 || wantBytes == 0 {
		t.Fatalf("query charged %d rounds and %d B: the fixture measures nothing", wantRounds, wantBytes)
	}
	clear(d.spent) // the last query's tally, which the next one replaces
	rounds, bytes, err := traffic(cancelAfterRelease{context.Background(), d})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "canceled at statement") {
		t.Fatalf("run returned %v, want a cancel at the statement after the release", err)
	}
	if rounds != wantRounds || bytes != wantBytes {
		t.Errorf("canceled run flushed %d rounds and %d B, want %d and %d", rounds, bytes, wantRounds, wantBytes)
	}
	rounds, bytes, err = traffic(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != wantRounds || bytes != wantBytes {
		t.Errorf("query after the canceled one added %d rounds and %d B, want %d and %d", rounds, bytes, wantRounds, wantBytes)
	}
}
