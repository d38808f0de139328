package bgv

// The three-prime suite for the ciphertext wire format (bodies shared with
// marshal_fuzz_test.go), and the pooling-discipline test: the pooled-scratch
// encryption and multiplication paths must never leak a buffer that a later
// call mutates, nor one call's scratch into another call's result.

import (
	"crypto/rand"
	"testing"
)

func FuzzRNSCiphertextUnmarshal(f *testing.F) { fuzzCiphertextUnmarshal(f, TestRNSParams) }

func TestRNSUnmarshalRejectsCorruption(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	unmarshalRejectsCorruption(t, ctx, keys)
}

func TestRNSMarshalRoundTrip(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	ct, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{9, 8, 7, 65535})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ctx.MarshalCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ctx.UnmarshalCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := ctx.Decrypt(keys.SK, back)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 9 || pt[1] != 8 || pt[2] != 7 || pt[3] != 65535 {
		t.Fatalf("round trip decrypted to %v", pt[:4])
	}
}

func TestRNSUnmarshalDoesNotAliasInput(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	unmarshalDoesNotAliasInput(t, ctx, keys)
}

// TestRNSPooledBuffersDoNotEscape pins the pooling discipline: results come
// from fresh slabs, so a ciphertext returned by Encrypt, Mul, or Sum must be
// unaffected by any later call that reuses the pooled scratch.
func TestRNSPooledBuffersDoNotEscape(t *testing.T) {
	ctx, keys := testRNSCtx(t)
	first, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{111})
	if err != nil {
		t.Fatal(err)
	}
	c0 := append([]uint64(nil), first.C0...)
	c1 := append([]uint64(nil), first.C1...)
	// Churn every pooled path: encryption, multiplication, summation.
	second, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{222})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Mul(first, second, keys.RLK); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Sum([]*Ciphertext{first, second}); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.EncryptValues(rand.Reader, keys.PK, []uint64{333}); err != nil {
		t.Fatal(err)
	}
	for i := range c0 {
		if first.C0[i] != c0[i] || first.C1[i] != c1[i] {
			t.Fatalf("word %d of an issued ciphertext changed under pool reuse", i)
		}
	}
	pt, err := ctx.Decrypt(keys.SK, first)
	if err != nil {
		t.Fatal(err)
	}
	if pt[0] != 111 {
		t.Fatalf("issued ciphertext decrypts to %d after pool churn, want 111", pt[0])
	}
	// Mul after Mul: the pooled scratch still holds the NTT-domain operands
	// of the multiplication above. An operand too short to overwrite them
	// must be rejected — not multiplied as whatever the last caller left
	// behind, which decrypts to garbage with a nil error.
	for name, empty := range map[string]*Ciphertext{
		"zero value": {},
		"short":      {C0: first.C0[:ctx.n], C1: first.C1[:ctx.n]},
	} {
		if got, err := ctx.Mul(empty, second, keys.RLK); err == nil {
			stale, _ := ctx.Decrypt(keys.SK, got)
			t.Fatalf("Mul on a %s operand returned a ciphertext built from stale scratch (decrypts to %v…)", name, stale[:2])
		}
		if _, err := ctx.Mul(second, empty, keys.RLK); err == nil {
			t.Fatalf("Mul with a %s right operand accepted", name)
		}
	}
}
