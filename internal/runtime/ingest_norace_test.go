//go:build !race

package runtime

import (
	"os"
	goruntime "runtime"
	"testing"

	"arboretum/internal/zkp"
)

// TestIngestMemoryFlat is the memory-flatness smoke (scripts/check.sh):
// growing the population 10× (10^5 → 10^6 devices) must not grow the
// pipeline's peak heap beyond allocator noise, because shard state is
// O(shards × batch) and per-device state derives on demand from the
// population seed. Gated behind ARBORETUM_INGEST_SMOKE: it runs ~10^6 real
// Paillier folds, a few seconds of work the default `go test` loop skips.
func TestIngestMemoryFlat(t *testing.T) {
	if os.Getenv("ARBORETUM_INGEST_SMOKE") == "" {
		t.Skip("set ARBORETUM_INGEST_SMOKE=1 to run the memory-flatness smoke")
	}
	sk := ingestKey(t)
	// Batch 1024 rather than the default 64: the one structure that grows
	// with population is the commitment-leaf buffer, 32 B per batch
	// (docs/INGEST.md) — an analytically-sized term, not leaked per-device
	// state. The batch size scales that term against the pipeline's
	// steady-state peak, which the pooled kernels (docs/KERNELS.md) cut
	// ~3.5× (to under 1 MB): at batch 256 the ~200 KB leaf term (amplified
	// ~2× by GC pacing over the run) again sits right at the 1.2× bound;
	// at 1024 the smoke measures what must stay flat, and a pipeline that
	// held per-device state would still blow past 5× at any batch size.
	peak := func(n int) uint64 {
		pop := newVirtualPopulation(7, n, 8)
		goruntime.GC() // settle the baseline before sampling begins
		gauge := &heapGauge{}
		gauge.sample(true)
		res, err := virtualIngest(pop, &sk.PublicKey, uint64(n), 8, 1024, nil, gauge)
		if err != nil {
			t.Fatal(err)
		}
		if res.accepted != n {
			t.Fatalf("accepted %d of %d devices", res.accepted, n)
		}
		return gauge.peakBytes()
	}
	// Peak heap is an upper-bound metric with GC-timing noise: on a loaded
	// machine the gauge can catch transient garbage that a collection would
	// have reclaimed. The minimum over two runs estimates the pipeline's
	// actual requirement rather than the scheduler's mood.
	small := min(peak(100_000), peak(100_000))
	big := min(peak(1_000_000), peak(1_000_000))
	t.Logf("peak heap: %d bytes at 10^5 devices, %d bytes at 10^6 (ratio %.2f)",
		small, big, float64(big)/float64(small))
	// The 1.2× bound is the acceptance criterion; a linear pipeline would
	// blow past 5×.
	if float64(big) > 1.2*float64(small) {
		t.Errorf("peak heap grew %.2f× over a 10× population (want ≤1.2×): %d → %d bytes",
			float64(big)/float64(small), small, big)
	}
}

// TestAllocGateDeviceUpload pins one honest device's upload at the packed
// row's own allocations: collect-wide's 2048 × 16 shape packs into one
// ciphertext, which ahe's TestAllocGatePackedRow gates at three (its box,
// its limbs and the row slice). The proof is made with zkp.ProveKeyed on the
// source's scratch and witness row into a recycled slot, so it adds none.
func TestAllocGateDeviceUpload(t *testing.T) {
	sk := ingestKey(t)
	d, err := NewDeployment(Config{
		N: 8, Categories: 16, CommitteeSize: 4, Seed: 3, KeyBits: 256,
		BudgetEpsilon: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := sk.NewPacking(2048, 16)
	if err != nil {
		t.Fatal(err)
	}
	src := d.shardRuns(d.Devices, codec, nil)[0].src.(*deviceSource)
	dev := src.devices[0]
	pr := new(zkp.Proof)
	upload := func() {
		up, err := src.deviceUpload(dev, 5, pr)
		if err != nil || up.proof != pr {
			t.Fatalf("honest upload: err %v, proof slot not reused: %v", err, up.proof != pr)
		}
	}
	for i := 0; i < 3; i++ {
		upload() // warm the encryption pools
	}
	const ceiling = 3
	if got := testing.AllocsPerRun(10, upload); got > ceiling {
		t.Errorf("deviceUpload: %.1f allocs/op, ceiling %d", got, ceiling)
	}
}
