package costmodel

import (
	"fmt"
	"math"
	"time"
)

// timeIt times fn over iters runs and returns the fastest, in seconds. A run
// the scheduler preempts only comes out slower, so the fastest run is the
// one least disturbed by whatever else the machine runs, and one slow run
// cannot order two primitives the wrong way round for sanity.
func timeIt(iters int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(start).Seconds())
	}
	return best, nil
}

// sanity rejects models that violate the structural orderings planning
// depends on.
func (m *Model) sanity() error {
	if m.HEAdd <= 0 || m.HEEnc <= 0 || m.MPCPerMultCPU <= 0 {
		return fmt.Errorf("costmodel: non-positive primitive cost after calibration")
	}
	if m.HEMulCt < m.HEAdd {
		return fmt.Errorf("costmodel: ciphertext multiplication cheaper than addition")
	}
	if m.MPCPerCmpCPU < m.MPCPerMultCPU {
		return fmt.Errorf("costmodel: MPC comparison cheaper than multiplication")
	}
	return nil
}
