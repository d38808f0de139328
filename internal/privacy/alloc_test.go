//go:build !race

package privacy

// Allocation-regression gate for the front end the gateway runs on whatever
// a request carries: admission costs what the query is, not what the body
// holds. Excluded under -race (the race runtime allocates shadow state of its
// own); scripts/check.sh runs it in the plain pass.

import (
	"runtime"
	"testing"
	"time"
)

// TestAllocGateAdmission: each 1 MiB shape (maxBody, the largest body the
// gateway reads) is admitted or refused within 8 MB allocated. The wall time
// is logged, not asserted.
func TestAllocGateAdmission(t *testing.T) {
	const limit = 8 << 20
	for _, shape := range admissionShapes(1 << 20) {
		name, src := shape.name, shape.src
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, _, _, err := Admit(src, db)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %v, %.2f MB, %v", name, wall, float64(got)/1e6, err)
		if got > limit {
			t.Errorf("%s: admission allocated %d bytes of a %d-byte source, want at most %d", name, got, len(src), limit)
		}
	}
}
