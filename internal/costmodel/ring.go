package costmodel

// Ring calibration — the cost model's one calibration entry point, the
// automated alternative to hand-benchmarking that the paper points at
// (Section 4.6: "the manual benchmarking step could be avoided by using an
// automated cost modeling framework, such as CostCO"). The BGV ring
// (internal/bgv) runs the paper's 2^15-degree, 135-bit-modulus deployment
// parameters natively, so CalibrateRing measures the FHE column of the
// evaluation tables directly on the ring it is given: no extrapolation
// between ring degrees, ciphertext sizes taken from real ciphertexts, and
// Slots/CtBytes consistent with the ring being priced. The non-FHE constants
// (Paillier, MPC, ZKP, hashing) are re-measured, with reconciliation against
// a live run, by the benchmark's replay (bench/replay.go), not here.

import (
	"crypto/rand"
	"fmt"

	"arboretum/internal/bgv"
)

// CalibrateRing builds a cost model whose FHE constants are measured
// natively on the given ring. Non-FHE constants keep the deployment
// defaults, and the deep-circuit estimates (HECmp, HEExp) — which cannot be
// micro-benchmarked here — are rescaled by the measured-to-default
// ciphertext-multiplication ratio, preserving the orderings planning
// depends on.
func CalibrateRing(p bgv.Params) (*Model, error) {
	d := Default()
	m := Default()
	ctx, err := bgv.NewContext(p)
	if err != nil {
		return nil, fmt.Errorf("costmodel: calibrate ring: %w", err)
	}
	keys, err := ctx.GenerateKeys(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("costmodel: calibrate ring keygen: %w", err)
	}
	ctA, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{1, 2, 3})
	if err != nil {
		return nil, fmt.Errorf("costmodel: calibrate ring encrypt: %w", err)
	}
	ctB, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{4})
	if err != nil {
		return nil, fmt.Errorf("costmodel: calibrate ring encrypt: %w", err)
	}
	m.Slots = p.N
	m.CtBytes = float64(ctA.Bytes())

	// Iteration counts balance accuracy against calibration latency: at the
	// paper ring one multiplication is ~10^2 ms, so single-digit iteration
	// counts keep the whole calibration in low single-digit seconds.
	encT, err := timeIt(4, func() error {
		_, err := ctx.Encrypt(rand.Reader, keys.PK, mustEncode(ctx, []uint64{1, 2, 3}))
		return err
	})
	if err != nil {
		return nil, err
	}
	m.HEEnc = encT
	addT, err := timeIt(16, func() error {
		_, err := ctx.Add(ctA, ctB)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.HEAdd = addT
	mulT, err := timeIt(2, func() error {
		_, err := ctx.Mul(ctA, ctB, keys.RLK)
		return err
	})
	if err != nil {
		return nil, err
	}
	m.HEMulCt = mulT
	m.HEMulPlain = m.HEMulCt / 10 // plaintext mult skips relinearization

	// Deep encrypted circuits are multiplication-dominated: scale the
	// deployment estimates by how this machine's measured multiplication
	// compares to the reference model's.
	mulRatio := m.HEMulCt / d.HEMulCt
	m.HECmp = d.HECmp * mulRatio
	m.HEExp = d.HEExp * mulRatio

	if err := m.sanity(); err != nil {
		return nil, err
	}
	return m, nil
}

func mustEncode(ctx *bgv.Context, values []uint64) bgv.Poly {
	p, err := ctx.Encode(values)
	if err != nil {
		panic(err) // values fit any test or deployment ring
	}
	return p
}
