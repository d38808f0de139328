package bgv

// Fuzz and hardening tests for the ciphertext wire format: arbitrary
// (corrupt, truncated, oversized) input must produce an error, never a panic
// or an out-of-range residue; accepted input has a unique encoding; and
// unmarshaling must not alias the caller's buffer. The bodies are shared by
// the one-prime suite (here) and the three-prime suite
// (rns_marshal_fuzz_test.go): the two differ only in the ring.

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"testing"
)

func fuzzSeedCiphertext(tb testing.TB, c *Context, kp *KeyPair) []byte {
	tb.Helper()
	ct, err := c.EncryptValues(rand.Reader, kp.PK, []uint64{1, 2, 3})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := c.MarshalCiphertext(ct)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzCiphertextUnmarshal seeds and runs the wire-format fuzz target on the
// ring p.
func fuzzCiphertextUnmarshal(f *testing.F, p Params) {
	ctx, err := NewContext(p)
	if err != nil {
		f.Fatal(err)
	}
	ct := ctx.newCiphertext() // all-zero ciphertext is valid wire material
	valid, err := ctx.MarshalCiphertext(ct)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})
	f.Add(valid[:wireHeader])
	f.Add(append(append([]byte(nil), valid...), 1))
	// Plausible header, out-of-range residue in the first lane.
	bad := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(bad[wireHeader+8*ctx.l:], ^uint64(0))
	f.Add(bad)
	// Wrong prime in the header.
	wrongPrime := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(wrongPrime[wireHeader:], p.Qi[0]+2)
	f.Add(wrongPrime)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := ctx.UnmarshalCiphertext(data)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		// Accepted input must be internally consistent and re-marshal to the
		// exact same bytes (the format has a unique encoding).
		ln := ctx.l * ctx.n
		if len(ct.C0) != ln || len(ct.C1) != ln {
			t.Fatal("accepted ciphertext with wrong row layout")
		}
		for _, half := range [][]uint64{ct.C0, ct.C1} {
			for li := 0; li < ctx.l; li++ {
				q := ctx.Params.Qi[li]
				for _, v := range ctx.row(half, li) {
					if v >= q {
						t.Fatalf("accepted residue %d ≥ prime %d", v, q)
					}
				}
			}
		}
		out, err := ctx.MarshalCiphertext(ct)
		if err != nil {
			t.Fatalf("re-marshal of accepted ciphertext failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("re-marshal differs from accepted input")
		}
	})
}

func FuzzCiphertextUnmarshal(f *testing.F) { fuzzCiphertextUnmarshal(f, TestParams) }

// unmarshalDoesNotAliasInput mutates the input buffer after a successful
// unmarshal and checks the ciphertext is unaffected (and vice versa for
// marshal output).
func unmarshalDoesNotAliasInput(t *testing.T, c *Context, kp *KeyPair) {
	data := fuzzSeedCiphertext(t, c, kp)
	ct, err := c.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	before := append(Poly(nil), ct.C0...)
	for i := range data {
		data[i] = 0
	}
	if !polyEq(before, ct.C0) {
		t.Fatal("ciphertext aliases the unmarshal input buffer")
	}
	out, err := c.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	out[wireHeader+8*c.l] ^= 0xff
	if ct.C0[0] != before[0] {
		t.Fatal("ciphertext aliases its marshal output buffer")
	}
}

func TestUnmarshalDoesNotAliasInput(t *testing.T) {
	c, kp := testCtx(t)
	unmarshalDoesNotAliasInput(t, c, kp)
}

// unmarshalRejectsCorruption spot-checks the error paths the fuzzer
// explores, so they are exercised in every ordinary test run too.
func unmarshalRejectsCorruption(t *testing.T, c *Context, kp *KeyPair) {
	data := fuzzSeedCiphertext(t, c, kp)
	cases := map[string][]byte{
		"empty":        {},
		"short header": data[:7],
		"truncated":    data[:len(data)-1],
		"trailing":     append(append([]byte(nil), data...), 0),
		"header only":  data[:wireHeader],
	}
	// patch returns a copy of data with a header or payload word replaced.
	patch := func(put func(b []byte)) []byte {
		b := append([]byte(nil), data...)
		put(b)
		return b
	}
	cases["degree zero"] = patch(func(b []byte) { binary.LittleEndian.PutUint32(b[:4], 0) })
	cases["degree not a power of two"] = patch(func(b []byte) { binary.LittleEndian.PutUint32(b[:4], 1000) })
	cases["wrong degree"] = patch(func(b []byte) { binary.LittleEndian.PutUint32(b[:4], uint32(c.n*2)) })
	cases["wrong prime count"] = patch(func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], uint32(c.l+1)) })
	cases["wrong prime"] = patch(func(b []byte) { binary.LittleEndian.PutUint64(b[wireHeader:], c.Params.Qi[0]+2) })
	cases["residue = prime"] = patch(func(b []byte) {
		binary.LittleEndian.PutUint64(b[wireHeader+8*c.l:], c.Params.Qi[0])
	})
	for name, in := range cases {
		if _, err := c.UnmarshalCiphertext(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	c, kp := testCtx(t)
	unmarshalRejectsCorruption(t, c, kp)
}
