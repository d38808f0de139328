// Package parallel is the shared execution engine for the repository's hot
// loops: a bounded worker pool with deterministic output ordering, first-error
// propagation, context cancellation, and panic forwarding.
//
// Every parallelized path in the crypto (internal/ahe, internal/bgv), runtime
// (internal/runtime), and planner (internal/planner) layers funnels through
// this package, so concurrency policy is set in exactly one place. The
// guarantees callers rely on (and tests assert):
//
//   - Deterministic ordering. Map writes result i of input i to slot i of the
//     returned slice regardless of which worker ran it or when it finished,
//     so a parallel map is a drop-in replacement for the sequential loop it
//     replaces.
//   - Sequential fallback. With one worker (or one item) the functions run
//     the plain ordered loop on the calling goroutine — no goroutines, no
//     channels — which makes `-cpu 1` / GOMAXPROCS=1 runs bit-identical to
//     the pre-parallel code.
//   - First-error propagation. If multiple items fail, the error of the
//     lowest-indexed failing item is returned — again independent of
//     scheduling — and remaining items are abandoned as soon as possible.
//   - Context cancellation. A canceled context stops dispatching new items
//     and returns ctx.Err() (unless an item error takes precedence).
//   - Panic forwarding. A panic in fn is captured and re-raised on the
//     calling goroutine (wrapped in a Panic with the original stack), so a
//     crashing worker cannot take down the process from a detached goroutine.
//
// Worker-count resolution (Workers) is: explicit positive argument, else
// GOMAXPROCS — the process-wide knob the Go runtime already reads from the
// environment. See docs/CONCURRENCY.md for the architecture-level picture.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves an effective worker count: an explicit n > 0 wins,
// otherwise GOMAXPROCS. The result is always ≥ 1.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Panic wraps a panic recovered from a worker goroutine so it can be
// re-raised on the caller's goroutine without losing the original stack.
type Panic struct {
	Value any    // the original panic value
	Stack []byte // stack of the panicking worker
}

func (p Panic) String() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", p.Value, p.Stack)
}

// state tracks the first (lowest-index) failure across workers.
type state struct {
	next int64 // next index to dispatch (atomic)
	done int64 // items completed successfully (atomic)

	mu       sync.Mutex
	errIdx   int
	err      error
	panicked bool
	pval     Panic

	stop atomic.Bool
}

// fail records an item failure, keeping only the lowest-indexed one.
func (s *state) fail(i int, err error) {
	s.mu.Lock()
	if s.err == nil || i < s.errIdx {
		s.err, s.errIdx = err, i
	}
	s.mu.Unlock()
	s.stop.Store(true)
}

func (s *state) panicAt(i int, v any, stack []byte) {
	s.mu.Lock()
	if !s.panicked || i < s.errIdx {
		s.panicked, s.errIdx = true, i
		s.pval = Panic{Value: v, Stack: stack}
	}
	s.mu.Unlock()
	s.stop.Store(true)
}

// ForEach runs fn(0) … fn(n-1) on up to workers goroutines (resolved via
// Workers) and waits for completion. It returns the error of the
// lowest-indexed failing call, or ctx.Err() if the context was canceled
// before all items ran. A nil ctx never cancels. See the package comment for
// the full contract.
func ForEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	_, err := run(ctx, n, workers, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// Map runs fn over 0 … n-1 on up to workers goroutines and returns the
// results in input order: out[i] = fn(i). On error the partial results are
// discarded and the lowest-indexed error is returned.
func Map[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return run(ctx, n, workers, fn)
}

func run[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		// Sequential fast path: same goroutine, same order as the loop this
		// call replaced. Cancellation is still honored between items.
		for i := 0; i < n; i++ {
			if ctx != nil {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				default:
				}
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	st := &state{}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if st.stop.Load() {
					return
				}
				if ctx != nil {
					select {
					case <-ctx.Done():
						st.stop.Store(true)
						return
					default:
					}
				}
				i := int(atomic.AddInt64(&st.next, 1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							buf := make([]byte, 64<<10)
							buf = buf[:runtime.Stack(buf, false)]
							st.panicAt(i, r, buf)
						}
					}()
					v, err := fn(i)
					if err != nil {
						st.fail(i, err)
						return
					}
					out[i] = v
					atomic.AddInt64(&st.done, 1)
				}()
			}
		}()
	}
	wg.Wait()

	if st.panicked {
		panic(st.pval)
	}
	if st.err != nil {
		return nil, st.err
	}
	if int(atomic.LoadInt64(&st.done)) < n {
		// Items were skipped without an item error: the context was canceled.
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, context.Canceled
	}
	return out, nil
}
