// Package bgv is bigintalias testdata for the policy.AliasProne rule: a
// Poly type whose values may view pooled scratch, seeded with every
// boundary-crossing shape the analyzer must flag — and the compliant
// copy/annotated variants it must not.
package bgv

// Poly stands in for the real internal/bgv.Poly: a polynomial that may be a
// view into a pooled scratch slab, which the policy table lists in
// AliasProne.
type Poly []uint64

// Buf owns pooled polynomials.
type Buf struct {
	Scratch Poly
	Rows    []Poly
}

// LeakScratch returns the pooled scratch polynomial itself.
func (b *Buf) LeakScratch() Poly {
	return b.Scratch // want `LeakScratch returns internal bgv\.Poly b\.Scratch without copy`
}

// LeakRow returns one element of the pooled row set.
func (b *Buf) LeakRow(i int) Poly {
	return b.Rows[i] // want `LeakRow returns internal bgv\.Poly b\.Rows\[\.\.\.\] without copy`
}

// StoreScratch adopts the caller's polynomial without copying.
func (b *Buf) StoreScratch(s Poly) {
	b.Scratch = s // want `StoreScratch stores caller-owned bgv\.Poly parameter s into b\.Scratch without copy`
}

// Wrap captures the caller's polynomial in a composite literal.
func Wrap(s Poly) *Buf {
	return &Buf{Scratch: s} // want `Wrap captures caller-owned bgv\.Poly parameter s in a composite literal without copy`
}

// CopyScratch is the compliant version: an explicit copy.
func (b *Buf) CopyScratch() Poly {
	out := make(Poly, len(b.Scratch))
	copy(out, b.Scratch)
	return out
}

// Adopt is the annotated ownership transfer: the directive suppresses the
// store on the next line.
func (b *Buf) Adopt(s Poly) {
	//arblint:ignore bigintalias caller transfers polynomial ownership by documented contract in analyzer testdata
	b.Scratch = s
}

// leakInternal is unexported; boundaries below export are out of scope.
func leakInternal(b *Buf) Poly {
	return b.Scratch
}
