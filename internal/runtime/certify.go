package runtime

import (
	"fmt"

	"arboretum/internal/lang"
	"arboretum/internal/privacy"
	"arboretum/internal/types"
)

// admit puts src through the one query front end (privacy.Admit) against
// the database a deployment of n devices presents: one one-hot row of the
// given width per device, elements in [0, 1].
func admit(src string, n, categories int) (*lang.Program, *types.Info, *privacy.Certificate, error) {
	prog, info, cert, err := privacy.Admit(src, types.DBInfo{
		N: int64(n), Width: int64(categories),
		ElemRange: types.Range{Lo: 0, Hi: 1},
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("runtime: %w", err)
	}
	return prog, info, cert, nil
}

// Certify admits src (privacy.Admit, the one query front end) without
// executing anything: it returns the privacy certificate a deployment of n
// devices (one-hot width categories) would charge for it. The certificate
// depends only on (src, n, categories) and Run admits through the same
// function, so certifying at admission and again at execution — which is
// what the analyst gateway (internal/service) does to reserve exactly the
// certified (ε, δ) in the tenant's budget ledger before a job is queued —
// always agree. A query that fails admission is rejected with the returned
// error and spends nothing.
func Certify(src string, n, categories int) (*privacy.Certificate, error) {
	_, _, cert, err := admit(src, n, categories)
	return cert, err
}
