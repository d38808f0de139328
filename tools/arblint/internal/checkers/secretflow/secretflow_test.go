package secretflow_test

import (
	"testing"

	"arboretum/tools/arblint/internal/analysistest"
	"arboretum/tools/arblint/internal/checkers/secretflow"
)

func TestSecretFlows(t *testing.T) {
	analysistest.Run(t, secretflow.Analyzer, "internal/mpc")
}

// TestSecretSources: the key accessors of policy.SecretSources taint their
// plain *big.Int results.
func TestSecretSources(t *testing.T) {
	analysistest.Run(t, secretflow.Analyzer, "internal/runtime")
}

// TestDefiningPackageClean runs the analyzer over the package defining the
// secret type: it handles shares without formatting them, so it is clean.
func TestDefiningPackageClean(t *testing.T) {
	analysistest.Run(t, secretflow.Analyzer, "internal/shamir")
}
