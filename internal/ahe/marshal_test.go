package ahe

import (
	"encoding/binary"
	"errors"
	"math"
	"math/big"
)

// A wire format for ciphertexts and public keys, which no production path
// uses (keys and ciphertexts move between the simulated parties as values):
// a 4-byte big-endian length followed by the big-endian magnitude bytes of
// each integer.

func appendBig(buf []byte, v *big.Int) []byte {
	b := v.Bytes()
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(b)))
	buf = append(buf, l[:]...)
	return append(buf, b...)
}

func readBig(buf []byte) (*big.Int, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, errors.New("ahe: truncated length prefix")
	}
	n := binary.BigEndian.Uint32(buf[:4])
	buf = buf[4:]
	if uint32(len(buf)) < n {
		return nil, nil, errors.New("ahe: truncated value")
	}
	if n > 0 && buf[0] == 0 {
		// appendBig never emits leading zeros; reject non-canonical
		// encodings so every value has exactly one wire form.
		return nil, nil, errors.New("ahe: non-canonical value encoding")
	}
	v := new(big.Int).SetBytes(buf[:n])
	return v, buf[n:], nil
}

// MarshalBinary serializes the ciphertext.
func (c *Ciphertext) MarshalBinary() ([]byte, error) {
	if c == nil || c.C == nil {
		return nil, errors.New("ahe: nil ciphertext")
	}
	return appendBig(nil, c.C), nil
}

// UnmarshalBinary deserializes a ciphertext.
func (c *Ciphertext) UnmarshalBinary(data []byte) error {
	v, rest, err := readBig(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("ahe: trailing bytes after ciphertext")
	}
	c.C = v
	return nil
}

// MarshalBinary serializes the public key (the modulus; n² is derived).
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	if pk == nil || pk.N == nil {
		return nil, errors.New("ahe: nil public key")
	}
	return appendBig(nil, pk.N), nil
}

// UnmarshalBinary deserializes a public key and attaches its fixed-base
// table, the same comb GenerateKey builds, for any number of encryptions:
// deriveH is deterministic in n.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	n, rest, err := readBig(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return errors.New("ahe: trailing bytes after public key")
	}
	// A Paillier modulus is a product of two odd primes of useful size.
	if n.Bit(0) == 0 || n.BitLen() < 128 {
		return errors.New("ahe: implausible modulus")
	}
	pk.N = n
	pk.N2 = new(big.Int).Mul(n, n)
	pk.fb = newFixedBase(n, pk.N2, math.MaxInt)
	return nil
}
