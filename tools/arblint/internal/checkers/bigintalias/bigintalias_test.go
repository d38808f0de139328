package bigintalias_test

import (
	"testing"

	"arboretum/tools/arblint/internal/analysistest"
	"arboretum/tools/arblint/internal/checkers/bigintalias"
)

func TestBigIntAlias(t *testing.T) {
	analysistest.Run(t, bigintalias.Analyzer, "internal/vsr", "internal/bgv")
}
