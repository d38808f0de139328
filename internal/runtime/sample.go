package runtime

import (
	"fmt"

	"arboretum/internal/mechanism"
	"arboretum/internal/mpc"
)

// The bin protocol of Section 6 implements secrecy of the sample: each
// participant places its (encrypted) contribution in one of b bins chosen
// uniformly at random, and the committee samples a secret window of x bins
// and computes on the window's sums alone. Devices cannot tell whether they
// were sampled (they never learn the window), and neither the committee nor
// the aggregator learns which bin a device chose — so nobody can observe
// which elements were selected, which is exactly what the amplification
// theorem requires.

// windowSums lets the committee sum only the sampled window: it draws the
// secret window start j and folds the window's bins of counts, shared in
// its MPC in bin-major order, into per-category sums with local share
// additions (out-of-window bins are simply never touched). It also reports
// how many accepted devices the window covered (simulation-side, for tests
// — in the real protocol nobody learns this). rate is the certificate's
// SampleRate, already a whole number of bins (x/b), so the window is the one
// ε was charged for.
func (d *Deployment) windowSums(ce *committeeExec, perBin []mpc.Secret, bins []int, rate float64) ([]mpc.Secret, int, error) {
	cats := d.cfg.Categories
	if len(perBin) != mechanism.SampleBinCount*cats {
		return nil, 0, fmt.Errorf("runtime: bin layout mismatch: %d cells", len(perBin))
	}
	sb, err := mechanism.NewSampleBins(d.noiseRand(), mechanism.SampleBinCount, mechanism.SampleWindow(rate))
	if err != nil {
		return nil, 0, err
	}
	sums := make([]mpc.Secret, cats)
	window := make([]mpc.Secret, 0, mechanism.SampleBinCount)
	for c := range sums {
		window = window[:0]
		for bin := 0; bin < mechanism.SampleBinCount; bin++ {
			if sb.Included(bin) {
				window = append(window, perBin[bin*cats+c])
			}
		}
		if sums[c], err = ce.engine.Sum(window); err != nil {
			return nil, 0, err
		}
	}
	covered := 0
	for _, b := range bins {
		if sb.Included(b) {
			covered++
		}
	}
	return sums, covered, nil
}
