package ahe

// Packed one-hot rows: the multi-candidate ballot of Baudron, Fouque,
// Pointcheval, Poupard and Stern (2001). A row of C cells is written as
// base-2^w digits of one plaintext, cell h being digit h, so a device in
// category h encrypts 2^(w·h) and one Paillier plaintext carries
// digits = (|n| − 2)/w cells. Folding packed rows adds digit-wise; as long
// as no digit reaches 2^w, nothing carries into its neighbour and the sum
// decodes to the exact histogram.

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// ErrPackedRange is Unpack's refusal of a packed plaintext that is negative
// or does not fit the digits its ciphertext carries: no fold of honest rows
// produces one, so decoding it would return garbage counts.
var ErrPackedRange = errors.New("ahe: packed plaintext out of range")

// Packing is the codec between a one-hot row of cells and the ciphertexts a
// device uploads for it, fixed by the public key, the number of rows that
// may be folded together (the device count) and the row's cell count. It is
// immutable and safe for concurrent use.
//
// The digit width w is the bit length of the device count, so 2^w exceeds
// it: each row adds at most 1 to every digit (an honest row to one, an
// all-ones row to all), and a fold of at most that many rows never carries.
// The −2 in the digit count keeps every packed plaintext below
// 2^(|n|−2) ≤ n/2, which Decrypt would otherwise read as negative. The codec
// does not prove that an uploaded ciphertext holds a valid row: a digit
// planted at 2^w − 1 by a dishonest device carries into its neighbour and
// decodes to wrong counts that are still in range. Only a validity proof
// bound to the ciphertext rules that out.
type Packing struct {
	pk     *PublicKey
	cells  int
	width  int        // w: bits per digit
	digits int        // cells per ciphertext
	pow    []*big.Int // pow[j] = 2^(w·j): cell j of a chunk, set
	ones   []*big.Int // ones[k]: every cell of chunk k set
}

// NewPacking returns the codec for rows of cells cells, of which at most
// devices are ever folded into one sum. It fails when the key is too short
// to hold even one digit of that width.
func (pk *PublicKey) NewPacking(devices, cells int) (*Packing, error) {
	if devices < 0 || cells < 1 {
		return nil, fmt.Errorf("ahe: packing %d cells for %d devices", cells, devices)
	}
	w, digits := packShape(pk.N.BitLen(), devices)
	if digits < 1 {
		return nil, fmt.Errorf("ahe: a %d-bit key cannot hold a %d-bit digit", pk.N.BitLen(), w)
	}
	p := &Packing{pk: pk, cells: cells, width: w, digits: digits}
	p.pow = make([]*big.Int, min(digits, cells))
	for j := range p.pow {
		p.pow[j] = new(big.Int).Lsh(one, uint(w*j))
	}
	p.ones = make([]*big.Int, (cells+digits-1)/digits)
	for k := range p.ones {
		sum := new(big.Int)
		for j := 0; j < p.chunkCells(k); j++ {
			sum.Add(sum, p.pow[j])
		}
		p.ones[k] = sum
	}
	return p, nil
}

// packShape returns the digit width and the cells per ciphertext of the
// codec for an n of keyBits bits and the given device count.
func packShape(keyBits, devices int) (width, digits int) {
	width = max(bits.Len(uint(devices)), 1)
	return width, (keyBits - 2) / width
}

// RowCiphertexts returns how many ciphertexts a row of cells cells packs
// into under a key of keyBits bits, for devices devices: what NewPacking's
// codec returns from Ciphertexts, computed before the key exists. It is 0
// where NewPacking would refuse the key.
func RowCiphertexts(keyBits, devices, cells int) int {
	if _, digits := packShape(keyBits, devices); digits >= 1 {
		return (cells + digits - 1) / digits
	}
	return 0
}

// Cells returns the row's cell count.
func (p *Packing) Cells() int { return p.cells }

// Ciphertexts returns how many ciphertexts one row packs into:
// ⌈cells/digits⌉.
func (p *Packing) Ciphertexts() int { return len(p.ones) }

// chunkCells returns how many cells ciphertext k carries: digits, except in
// a shorter last chunk.
func (p *Packing) chunkCells(k int) int {
	return min(p.digits, p.cells-k*p.digits)
}

// Encrypt encrypts the one-hot row with cell hot set: 2^(w·(hot mod digits))
// in ciphertext hot/digits, 0 in every other. The ciphertexts are encrypted
// one after another with random, as Encrypt does; a row is a device's own
// work, so there is nothing to fan out.
func (p *Packing) Encrypt(random io.Reader, hot int) ([]*Ciphertext, error) {
	if hot < 0 || hot >= p.cells {
		return nil, fmt.Errorf("ahe: hot index %d out of [0,%d)", hot, p.cells)
	}
	return p.encryptRow(random, func(k int) *big.Int {
		if k == hot/p.digits {
			return p.pow[hot%p.digits]
		}
		return zero
	})
}

// EncryptOnes encrypts the row with every cell set: a malformed upload that
// would add one to every count, still in range for the codec.
func (p *Packing) EncryptOnes(random io.Reader) ([]*Ciphertext, error) {
	return p.encryptRow(random, func(k int) *big.Int { return p.ones[k] })
}

func (p *Packing) encryptRow(random io.Reader, msg func(k int) *big.Int) ([]*Ciphertext, error) {
	row := make([]*Ciphertext, len(p.ones))
	for k := range row {
		ct, err := p.pk.Encrypt(random, msg(k))
		if err != nil {
			return nil, err
		}
		row[k] = ct
	}
	return row, nil
}

// Unpack splits the decrypted sums of packed rows, one plaintext per
// ciphertext in row order, into per-cell counts. A plaintext that is
// negative or has a bit above its chunk's last digit is refused with
// ErrPackedRange.
func (p *Packing) Unpack(pts []*big.Int) ([]int64, error) {
	if len(pts) != len(p.ones) {
		return nil, fmt.Errorf("ahe: unpacking %d plaintexts, the row packs into %d", len(pts), len(p.ones))
	}
	counts := make([]int64, p.cells)
	for k, pt := range pts {
		n := p.chunkCells(k)
		if pt.Sign() < 0 || pt.BitLen() > n*p.width {
			return nil, fmt.Errorf("%w: ciphertext %d of %d", ErrPackedRange, k, len(pts))
		}
		for j := 0; j < n; j++ {
			var v int64
			for b := p.width - 1; b >= 0; b-- {
				v = v<<1 | int64(pt.Bit(p.width*j+b))
			}
			counts[k*p.digits+j] = v
		}
	}
	return counts, nil
}
