package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results land at their input index no matter how many
// workers run or how long each item takes.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out, err := Map(nil, 100, workers, func(i int) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // shuffle completion order
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapSequentialFallback: one worker must not spawn goroutines and must
// visit items strictly in order.
func TestMapSequentialFallback(t *testing.T) {
	var orderOK = true
	last := -1
	_, err := Map(nil, 50, 1, func(i int) (int, error) {
		if i != last+1 {
			orderOK = false
		}
		last = i
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !orderOK || last != 49 {
		t.Fatalf("sequential fallback visited items out of order (last=%d)", last)
	}
}

// TestFirstErrorPropagation: with several failing items, the lowest index
// wins deterministically.
func TestFirstErrorPropagation(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("item %d failed", i) }
	for _, workers := range []int{1, 4, 8} {
		for trial := 0; trial < 10; trial++ {
			_, err := Map(nil, 64, workers, func(i int) (int, error) {
				if i == 9 || i == 33 || i == 60 {
					return 0, errAt(i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "item 9 failed" {
				t.Fatalf("workers=%d: got error %v, want item 9's", workers, err)
			}
		}
	}
}

// TestErrorStopsDispatch: after a failure, the pool abandons remaining work
// rather than running all n items.
func TestErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(nil, 10_000, 4, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 5_000 {
		t.Fatalf("pool kept dispatching after failure: %d of 10000 ran", n)
	}
}

// TestCancellation: a canceled context stops the pool and surfaces ctx.Err().
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := Map(ctx, 10_000, 4, func(i int) (int, error) {
		if ran.Add(1) == 8 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Sequential path honors cancellation too.
	ran.Store(0)
	ctx2, cancel2 := context.WithCancel(context.Background())
	_, err = Map(ctx2, 10_000, 1, func(i int) (int, error) {
		if ran.Add(1) == 8 {
			cancel2()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential: got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 8 {
		t.Fatalf("sequential: ran %d items after cancel, want 8", n)
	}
}

// TestPanicRecovery: a worker panic re-raises on the caller with the original
// value preserved.
func TestPanicRecovery(t *testing.T) {
	for _, workers := range []int{2, 8} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				p, ok := r.(Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want parallel.Panic", workers, r)
				}
				if p.Value != "boom" {
					t.Fatalf("workers=%d: panic value %v, want boom", workers, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Fatalf("workers=%d: panic lost the worker stack", workers)
				}
			}()
			ForEach(nil, 32, workers, func(i int) error {
				if i == 5 {
					panic("boom")
				}
				return nil
			})
		}()
	}
}

// TestForEach exercises the no-result variant.
func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(nil, 1000, 8, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 999*1000/2 {
		t.Fatalf("sum = %d, want %d", got, 999*1000/2)
	}
}

// TestWorkersResolution: explicit count wins; zero falls back to GOMAXPROCS.
func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-1); got < 1 {
		t.Fatalf("Workers(-1) = %d, want ≥ 1", got)
	}
}

// TestEmpty: zero items is a no-op for every worker count.
func TestEmpty(t *testing.T) {
	out, err := Map(nil, 0, 8, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || out != nil {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
}
