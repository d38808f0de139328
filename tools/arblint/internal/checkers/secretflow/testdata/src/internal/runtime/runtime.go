// Package runtime is secretflow analyzer testdata: a client of the key
// accessors listed in policy.SecretSources. Their *big.Int results are not
// of a secret type, so it is the call, not the type, that taints them.
package runtime

import (
	"fmt"
	"log"

	ahe "arboretum/tools/arblint/internal/checkers/secretflow/testdata/src/internal/ahe"
)

// LeakPrime formats the shared prime into an error string.
func LeakPrime(sk *ahe.PrivateKey) error {
	return fmt.Errorf("prime %v does not divide n", sk.Prime()) // want `secret ahe.Prime flows into fmt.Errorf`
}

// LeakMuViaLocal logs μ after a hop through a local.
func LeakMuViaLocal(sk *ahe.PrivateKey) {
	mu := sk.Mu()
	log.Printf("mu=%v", mu) // want `secret ahe.Mu flows into log.Printf`
}

// TypedRefusal wraps the accessor package's typed error, which names no
// value: clean.
func TypedRefusal(sk *ahe.PrivateKey) error {
	if sk.Lambda().Sign() == 0 {
		return fmt.Errorf("reconstructed key: %w", ahe.ErrNotFactor)
	}
	return nil
}
