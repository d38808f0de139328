// Package checkers is the arblint analyzer registry: the ten domain
// analyzers plus the always-on directive validator, in the order the driver
// runs and documents them (docs/ANALYSIS.md). The first five and the last
// are syntactic; the four between ride the interprocedural dataflow engine
// (internal/dataflow) and reason through helper-function hops.
package checkers

import (
	"arboretum/tools/arblint/internal/analysis"
	"arboretum/tools/arblint/internal/checkers/bigintalias"
	"arboretum/tools/arblint/internal/checkers/budgetflow"
	"arboretum/tools/arblint/internal/checkers/ctxcheckpoint"
	"arboretum/tools/arblint/internal/checkers/errdiscard"
	"arboretum/tools/arblint/internal/checkers/linkname"
	"arboretum/tools/arblint/internal/checkers/noiserelease"
	"arboretum/tools/arblint/internal/checkers/randsource"
	"arboretum/tools/arblint/internal/checkers/rawgo"
	"arboretum/tools/arblint/internal/checkers/secretflow"
	"arboretum/tools/arblint/internal/checkers/walorder"
	"arboretum/tools/arblint/internal/directive"
)

// Domain returns the ten domain analyzers.
func Domain() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		randsource.Analyzer,
		budgetflow.Analyzer,
		bigintalias.Analyzer,
		rawgo.Analyzer,
		errdiscard.Analyzer,
		noiserelease.Analyzer,
		secretflow.Analyzer,
		ctxcheckpoint.Analyzer,
		walorder.Analyzer,
		linkname.Analyzer,
	}
}

// All returns every analyzer, including the directive validator (which
// knows the registry's names so it can reject typo'd suppressions).
func All() []*analysis.Analyzer {
	domain := Domain()
	names := make([]string, len(domain))
	for i, a := range domain {
		names[i] = a.Name
	}
	return append(domain, directive.Analyzer(names))
}
