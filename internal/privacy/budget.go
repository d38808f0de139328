package privacy

import (
	"fmt"
	"sync"
)

// Budget is the deployment's privacy budget (Section 5.2): the key
// generation committee checks the balance before authorizing a query and
// records the remaining balance in the query authorization certificate for
// the next round's committee.
type Budget struct {
	mu               sync.Mutex
	epsilon, delta   float64
	epsUsed, delUsed float64
	queries          int
}

// NewBudget creates a budget with the given totals.
func NewBudget(epsilon, delta float64) (*Budget, error) {
	if epsilon <= 0 || delta < 0 {
		return nil, fmt.Errorf("privacy: invalid budget ε=%g δ=%g", epsilon, delta)
	}
	return &Budget{epsilon: epsilon, delta: delta}, nil
}

// Charge deducts a certificate's cost; it fails without deducting when the
// balance is insufficient (the query is rejected, Section 5.2).
func (b *Budget) Charge(c *Certificate) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.epsUsed+c.Epsilon > b.epsilon {
		return fmt.Errorf("privacy: ε budget exhausted: used %g + query %g > total %g",
			b.epsUsed, c.Epsilon, b.epsilon)
	}
	if b.delUsed+c.Delta > b.delta {
		return fmt.Errorf("privacy: δ budget exhausted: used %g + query %g > total %g",
			b.delUsed, c.Delta, b.delta)
	}
	b.epsUsed += c.Epsilon
	b.delUsed += c.Delta
	b.queries++
	return nil
}

// Remaining returns the unspent ε and δ.
func (b *Budget) Remaining() (eps, delta float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epsilon - b.epsUsed, b.delta - b.delUsed
}

// Queries returns the number of charged queries.
//
//arblint:ignore deadexport test seam: runtime's chaos tests count charges through it to prove no run is charged twice
func (b *Budget) Queries() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.queries
}
