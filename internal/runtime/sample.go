package runtime

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"arboretum/internal/ahe"
	"arboretum/internal/mechanism"
)

// The bin protocol of Section 6 implements secrecy of the sample: each
// participant places its (encrypted) contribution in one of b bins chosen
// uniformly at random, and the committee samples a secret window of x bins
// and decrypts only the window's sum. Devices cannot tell whether they were
// sampled (they never learn the window), and neither the committee nor the
// aggregator learns which bin a device chose — so nobody can observe which
// elements were selected, which is exactly what the amplification theorem
// requires.

// windowSums lets the committee decrypt only the sampled window: it draws
// the secret window start j, homomorphically folds the window's bins into
// per-category sums (out-of-window bins are simply never touched), and
// reports how many accepted devices the window covered (simulation-side, for
// tests — in the real protocol nobody learns this). rate is the
// certificate's SampleRate, already a whole number of bins (x/b), so the
// window is the one ε was charged for.
func (d *Deployment) windowSums(km *keyMaterial, perBin []*ahe.Ciphertext, bins []int, rate float64) ([]*ahe.Ciphertext, int, error) {
	cats := d.cfg.Categories
	if len(perBin) != mechanism.SampleBinCount*cats {
		return nil, 0, fmt.Errorf("runtime: bin layout mismatch: %d cells", len(perBin))
	}
	sb, err := mechanism.NewSampleBins(d.noiseRand(), mechanism.SampleBinCount, mechanism.SampleWindow(rate))
	if err != nil {
		return nil, 0, err
	}
	sums := make([]*ahe.Ciphertext, cats)
	for c := 0; c < cats; c++ {
		for bin := 0; bin < mechanism.SampleBinCount; bin++ {
			if !sb.Included(bin) {
				continue
			}
			cell := perBin[bin*cats+c]
			if sums[c] == nil {
				zero, err := km.pub.Encrypt(rand.Reader, big.NewInt(0))
				if err != nil {
					return nil, 0, err
				}
				sums[c] = zero
			}
			folded, err := km.pub.Add(sums[c], cell)
			if err != nil {
				return nil, 0, err
			}
			sums[c] = folded
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
