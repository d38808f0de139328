package fixed

import "testing"

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
