package privacy

import (
	"errors"
	"fmt"

	"arboretum/internal/lang"
	"arboretum/internal/types"
)

// ErrNoMechanism refuses a program that calls no mechanism (laplace, em or
// topk): it releases nothing a mechanism noised, so there is no ε to charge
// and no reason to collect a row.
var ErrNoMechanism = errors.New("query calls no mechanism (laplace, em or topk)")

// Admit is the query front end, and the only one: parse src, infer basic
// types and value ranges against the database shape, and certify the program
// differentially private. The planner, the runtime and
// (through runtime.Certify) the analyst gateway all admit a query here, so
// the certificate a reservation is priced from is the certificate the run
// charges and the plan reports — (ε, δ, sample rate) depend only on (src, db).
//
// Errors carry the stage that refused the query ("parse:", "types:",
// "certification:"); callers prefix their own package.
func Admit(src string, db types.DBInfo) (*lang.Program, *types.Info, *Certificate, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parse: %w", err)
	}
	info, err := types.Infer(prog, db)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("types: %w", err)
	}
	cert, err := Certify(prog, info)
	if err == nil && len(cert.Mechanisms) == 0 {
		err = ErrNoMechanism
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("certification: %w", err)
	}
	return prog, info, cert, nil
}
