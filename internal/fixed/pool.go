package fixed

// Buffer pooling for the crypto hot paths.
//
// The bgv and ahe kernels used to burn most of their per-op cost on
// allocation: every multiplication, encryption, and fold built its scratch
// polynomials fresh (bgv.Mul measured 1.2 MB / 47 allocs per op before
// pooling). This file is the shared remedy: SlabPool, a
// sync.Pool of fixed-size uint64 slabs, and Pool[T], a typed sync.Pool of
// scratch structs, which the kernels check out per operation and return on
// exit so steady-state hot loops run at zero (bgv) or near-zero (ahe) heap
// allocations. Both hand out pointers, not values, so a Get/Put round trip
// itself allocates nothing. The pools carry no secrets of their own —
// callers must treat checked-out buffers as uninitialized memory and fully
// overwrite them (Get does not zero) — and no randomness, so the package
// stays in arblint's Unregulated set.
//
// Slab is a named type rather than a bare []uint64 so the arblint
// bigintalias checker can flag pooled buffers that cross an exported API
// boundary without a copy (see tools/arblint/internal/policy.AliasProne): a
// Slab that escapes into a returned ciphertext would be recycled into the
// next operation's scratch and silently corrupt the caller's value.

import "sync"

// Slab is a pooled uint64 buffer. A checked-out slab aliases pool-owned
// memory: it may be sliced and written freely while held, but must never be
// retained, returned across an exported API boundary, or read after Put.
type Slab []uint64

// SlabPool hands out uint64 slabs of one fixed size. The zero value is not
// usable; create pools with NewSlabPool. A SlabPool is safe for concurrent
// use; individual slabs are not.
type SlabPool struct {
	size int
	p    sync.Pool
}

// NewSlabPool returns a pool of slabs of exactly size words.
func NewSlabPool(size int) *SlabPool {
	if size <= 0 {
		panic("fixed: SlabPool size must be positive")
	}
	sp := &SlabPool{size: size}
	sp.p.New = func() any {
		s := make(Slab, size)
		return &s
	}
	return sp
}

// Size returns the word length of the pool's slabs.
func (sp *SlabPool) Size() int { return sp.size }

// Get checks a slab out of the pool. The contents are arbitrary (typically
// a previous holder's scratch); callers must overwrite every word they read.
func (sp *SlabPool) Get() *Slab {
	return sp.p.Get().(*Slab)
}

// Put returns a slab obtained from Get. Putting a slab of the wrong size
// (for example a resliced view) panics rather than poisoning the pool.
func (sp *SlabPool) Put(s *Slab) {
	if s == nil || len(*s) != sp.size {
		panic("fixed: SlabPool.Put of wrong-size slab")
	}
	sp.p.Put(s)
}

// Pool is a typed pool of scratch structs: the bgv multiplication and
// encryption scratch areas (many pre-sliced polynomials that belong
// together) ride through one Pool[T] each instead of one SlabPool per
// buffer. New is called to build a fresh *T when the pool is empty.
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
