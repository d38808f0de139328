package fixed

import (
	"sync"
	"testing"
)

func TestSlabPoolRoundTrip(t *testing.T) {
	sp := NewSlabPool(64)
	if sp.Size() != 64 {
		t.Fatalf("Size = %d, want 64", sp.Size())
	}
	s := sp.Get()
	if len(*s) != 64 {
		t.Fatalf("slab length %d, want 64", len(*s))
	}
	for i := range *s {
		(*s)[i] = uint64(i)
	}
	sp.Put(s)
	// A second checkout may or may not be the same slab; either way it must
	// have the right size and be fully writable.
	s2 := sp.Get()
	if len(*s2) != 64 {
		t.Fatalf("second slab length %d, want 64", len(*s2))
	}
	sp.Put(s2)
}

func TestSlabPoolPutWrongSizePanics(t *testing.T) {
	sp := NewSlabPool(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a resliced slab did not panic")
		}
	}()
	s := sp.Get()
	short := (*s)[:4]
	sp.Put(&short)
}

func TestSlabPoolZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSlabPool(0) did not panic")
		}
	}()
	NewSlabPool(0)
}

// TestSlabPoolSteadyStateAllocs pins the Get/Put round trip itself at zero
// allocations — the property the bgv/ahe hot paths build their zero-alloc
// budgets on.
func TestSlabPoolSteadyStateAllocs(t *testing.T) {
	sp := NewSlabPool(1 << 10)
	sp.Put(sp.Get()) // warm the pool
	avg := testing.AllocsPerRun(100, func() {
		s := sp.Get()
		(*s)[0] = 1
		sp.Put(s)
	})
	if avg > 0 {
		t.Fatalf("SlabPool round trip allocates %.1f/op, want 0", avg)
	}
}

func TestTypedPoolRoundTrip(t *testing.T) {
	type scratch struct{ a, b []uint64 }
	p := Pool[scratch]{New: func() *scratch {
		return &scratch{a: make([]uint64, 16), b: make([]uint64, 16)}
	}}
	s := p.Get()
	if len(s.a) != 16 || len(s.b) != 16 {
		t.Fatal("New not applied")
	}
	p.Put(s)
	p.Put(p.Get())
	avg := testing.AllocsPerRun(100, func() {
		v := p.Get()
		v.a[0]++
		p.Put(v)
	})
	if avg > 0 {
		t.Fatalf("Pool[T] round trip allocates %.1f/op, want 0", avg)
	}
}

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
