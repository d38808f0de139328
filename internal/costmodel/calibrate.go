package costmodel

import (
	"fmt"
	"time"
)

// timeIt measures the average wall-clock time of fn over iters runs.
func timeIt(iters int, fn func() error) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(iters), nil
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
