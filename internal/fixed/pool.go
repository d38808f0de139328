package fixed

// Buffer pooling for the crypto hot paths.
//
// The bgv and ahe kernels used to burn most of their per-op cost on
// allocation: every multiplication, encryption, and fold built its scratch
// polynomials fresh (bgv.Mul measured 1.2 MB / 47 allocs per op before
// pooling). Pool[T], a typed sync.Pool of scratch structs, is the shared
// remedy: the kernels check one out per operation and return it on exit, so
// steady-state hot loops run at zero (bgv) or near-zero (ahe) heap
// allocations. It hands out pointers, not values, so a Get/Put round trip
// itself allocates nothing. A pool carries no secrets of its own — callers
// must treat a checked-out value as uninitialized memory and fully overwrite
// it (Get does not zero) — and no randomness, so the package stays in
// arblint's Unregulated set.

import "sync"

// Pool is a typed pool of scratch structs: the bgv multiplication and
// encryption scratch areas (many pre-sliced polynomials that belong
// together) ride through one Pool[T] each instead of one pool per buffer.
// New is called to build a fresh *T when the pool is empty.
type Pool[T any] struct {
	New func() *T
	p   sync.Pool
}

// Get checks a scratch value out of the pool, building one with New if the
// pool is empty. Contents are a previous holder's state; overwrite before
// reading.
func (p *Pool[T]) Get() *T {
	if v := p.p.Get(); v != nil {
		return v.(*T)
	}
	return p.New()
}

// Put returns a scratch value obtained from Get.
func (p *Pool[T]) Put(v *T) { p.p.Put(v) }
