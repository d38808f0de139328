package main

import (
	"fmt"
	"math"
	"math/rand"
)

// The generators below are the only source of workload inputs: each is a
// pure function of the seed, and the program under test sees nothing but
// what they return (runtime.Config.Data, query text, HTTP bodies).

// uniformData assigns each of n devices a category in [0, c) uniformly and
// returns the assignment with the histogram the benchmark checks released
// counts against.
func uniformData(rng *rand.Rand, n, c int) (data []int, hist []int) {
	data = make([]int, n)
	hist = make([]int, c)
	for i := range data {
		data[i] = rng.Intn(c)
		hist[data[i]]++
	}
	return data, hist
}

// plantedTopK builds a population whose top-k categories are separated from
// the rest by as wide a gap as n devices allow: k random categories get
// n/k devices each, the n%k left over go one at a time to the other
// categories. It returns the per-device assignment (shuffled), the planted
// set, and the gap between the smallest planted count and the largest other
// count.
func plantedTopK(rng *rand.Rand, n, c, k int) (data []int, top []int, gap int, err error) {
	if k < 1 || k >= c || n < k {
		return nil, nil, 0, fmt.Errorf("plantedTopK: need 1 <= k < c and n >= k, have n=%d c=%d k=%d", n, c, k)
	}
	cats := rng.Perm(c)
	top, rest := cats[:k], cats[k:]
	heavy := n / k
	light := make([]int, len(rest))
	for _, t := range top {
		for i := 0; i < heavy; i++ {
			data = append(data, t)
		}
	}
	for i := 0; i < n%k; i++ {
		data = append(data, rest[i%len(rest)])
		light[i%len(rest)]++
	}
	maxLight := 0
	for _, l := range light {
		maxLight = max(maxLight, l)
	}
	rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
	return data, append([]int(nil), top...), heavy - maxLight, nil
}

// topKMinEpsilon is the smallest per-round ε at which k rounds of Gumbel
// arg-max with exclusion over c categories return exactly the planted set
// with probability at least 1 − failure, given the planted gap. One round
// adds Gumbel(2/ε) noise to every count (sensitivity 1); the difference of
// two such draws is logistic with scale 2/ε, so an outsider overtakes a
// planted category across the gap with probability at most exp(−gap·ε/2).
// A union bound over k rounds and c−k outsiders gives
// k·(c−k)·exp(−gap·ε/2) ≤ failure.
func topKMinEpsilon(c, k, gap int, failure float64) float64 {
	return 2 * math.Log(float64(k*(c-k))/failure) / float64(gap)
}

// laplaceBound is the distance t with P(|Laplace(1/ε)| > t) ≤ failure, plus
// one for the integer rounding of noise added under encryption.
func laplaceBound(eps, failure float64) float64 {
	return math.Log(1/failure)/eps + 1
}
