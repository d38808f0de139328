// Package bgv implements a BGV-style leveled homomorphic encryption scheme
// over the ring Z_Q[x]/(x^n + 1), Q = q_1·…·q_L a product of word-sized
// NTT-friendly primes (an RNS basis).
//
// Arboretum's prototype uses BGV (Section 6) with a polynomial degree of 2^15
// and a 135-bit ciphertext modulus. This package is a real, working RLWE
// scheme — key generation, encryption, decryption, homomorphic addition,
// plaintext multiplication, and one level of ciphertext multiplication with
// gadget relinearization — implemented on the standard library alone. There
// is one ring implementation, parameterised by its prime basis (Params.Qi):
// PaperRNSParams is the paper's deployment ring (2^15, three 45-bit primes,
// exactly 135 bits), which the benchmarks and the cost model's calibration
// (costmodel.CalibrateRing) measure natively; TestRNSParams (2^10, three
// primes) and TestParams (2^10, the single prime Q) are the reduced rings the
// unit tests run. The execution runtime does not import this package: the
// planner prices FHE operations from the cost model, whose FHE rates
// `arboretum plan -ring` measures on this ring (see DESIGN.md for the
// substitution argument).
//
// Encoding is coefficient packing: a plaintext is a vector of up to n values
// mod t placed in the polynomial's coefficients. Addition is slot-wise;
// ciphertext multiplication is negacyclic convolution (use degree-0
// plaintexts for scalar products).
//
// # Thread safety
//
// A Context is logically immutable after NewContext — its NTT tables and CRT
// constants are precomputed and only ever read, and its scratch pools are
// internally synchronized — so one Context may serve any number of goroutines
// concurrently. The same holds for SecretKey, PublicKey, and RelinKey once
// generated. Ciphertext, Poly, and Plaintext values are plain slices with no
// internal synchronization: do not mutate one while another goroutine reads
// it. The hot paths (Encrypt's and Mul's per-prime lanes, Sum's chunked fold)
// fan out over the internal/parallel worker pool; every result is
// bit-identical at any worker count because all ring arithmetic is exact
// modular arithmetic, the lanes are independent, and partial results are
// combined in a fixed order. See docs/CONCURRENCY.md.
package bgv

import (
	"encoding/binary"
	"io"
)

// Q is the 60-bit NTT-friendly prime 2^60 − 2^18 + 1, q ≡ 1 (mod 2^18), so
// the negacyclic NTT works for every ring degree up to 2^17. It is the whole
// basis of the one-prime test ring (TestParams).
const Q uint64 = 1152921504606830593

// relinLogBase is the log of the gadget decomposition base (2^relinLogBase)
// used by the relinearization key: each prime's residues are split into
// ⌈bits(q_l)/relinLogBase⌉ digits.
const relinLogBase = 10

// Poly is one N-coefficient polynomial: an encoded plaintext (coefficients
// below T, hence valid residues in every prime's lane) or a single prime's
// row of a ring element. Polys and the types built from them (Ciphertext,
// keys) carry no synchronization: they may be read concurrently, but a caller
// who mutates one must not share it across goroutines.
type Poly []uint64

// Plaintext is a coefficient vector mod T, length ≤ N.
type Plaintext []uint64

// sampleUniformInto fills p with uniform coefficients mod q by rejection
// sampling: a draw is accepted only below the largest multiple of q that fits
// in 64 bits, so the reduction is unbiased.
func sampleUniformInto(r io.Reader, p Poly, q uint64) error {
	bound := (^uint64(0) / q) * q
	var buf [8]byte
	for i := range p {
		for {
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return err
			}
			v := binary.LittleEndian.Uint64(buf[:])
			if v < bound {
				p[i] = v % q
				break
			}
		}
	}
	return nil
}
