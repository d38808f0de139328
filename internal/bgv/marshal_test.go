package bgv

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// A wire format for ciphertexts, which no production path uses: a header
// naming the ring — 4-byte degree, 4-byte prime count, then the primes
// themselves, little-endian 8 bytes each — followed by C0's L rows and C1's L
// rows of 8-byte coefficients. Embedding the primes makes the blob
// self-describing (a reader can reject a ciphertext from the wrong ring
// before touching its payload) and gives the format a unique encoding: every
// accepted byte string re-marshals to itself.

// wireHeader is the fixed prefix length before the prime list.
const wireHeader = 8

// MarshalCiphertext serializes ct under this context's parameters.
func (c *Context) MarshalCiphertext(ct *Ciphertext) ([]byte, error) {
	if err := c.check(ct); err != nil {
		return nil, err
	}
	ln := c.l * c.n
	out := make([]byte, wireHeader+8*c.l+16*ln)
	binary.LittleEndian.PutUint32(out[:4], uint32(c.n))
	binary.LittleEndian.PutUint32(out[4:8], uint32(c.l))
	off := wireHeader
	for _, q := range c.Params.Qi {
		binary.LittleEndian.PutUint64(out[off:], q)
		off += 8
	}
	for _, v := range ct.C0 {
		binary.LittleEndian.PutUint64(out[off:], v)
		off += 8
	}
	for _, v := range ct.C1 {
		binary.LittleEndian.PutUint64(out[off:], v)
		off += 8
	}
	return out, nil
}

// UnmarshalCiphertext deserializes and validates a ciphertext for this
// context: the header must name exactly this ring (degree, prime count, and
// primes in order) and every coefficient must be reduced below its row's
// prime. The result is a fresh slab; it never aliases data.
func (c *Context) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	if len(data) < wireHeader {
		return nil, errors.New("bgv: truncated ciphertext")
	}
	n := int(binary.LittleEndian.Uint32(data[:4]))
	l := int(binary.LittleEndian.Uint32(data[4:8]))
	if n != c.n || l != c.l {
		return nil, fmt.Errorf("bgv: ciphertext ring %d×%d does not match context %d×%d", n, l, c.n, c.l)
	}
	if len(data) != wireHeader+8*l+16*l*n {
		return nil, errors.New("bgv: ciphertext length mismatch")
	}
	off := wireHeader
	for _, q := range c.Params.Qi {
		if got := binary.LittleEndian.Uint64(data[off:]); got != q {
			return nil, fmt.Errorf("bgv: ciphertext prime %d does not match context prime %d", got, q)
		}
		off += 8
	}
	ct := c.newCiphertext()
	for _, rowDst := range [][]uint64{ct.C0, ct.C1} {
		for li := 0; li < l; li++ {
			q := c.Params.Qi[li]
			row := c.row(rowDst, li)
			for i := range row {
				v := binary.LittleEndian.Uint64(data[off:])
				if v >= q {
					return nil, errors.New("bgv: coefficient out of range")
				}
				row[i] = v
				off += 8
			}
		}
	}
	return ct, nil
}
