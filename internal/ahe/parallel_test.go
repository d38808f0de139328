package ahe

// Determinism test for the parallelized path: the parallel EncryptVector
// must still decrypt to the one-hot row.

import (
	"crypto/rand"
	"runtime"
	"testing"
)

// TestEncryptVectorParallelDecrypts checks the parallel path still produces
// a valid one-hot row with ciphertexts at their declared indices.
func TestEncryptVectorParallelDecrypts(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const length, hot = 33, 31
	vec, err := pk.EncryptVector(rand.Reader, length, hot)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range vec {
		m, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		want := int64(0)
		if i == hot {
			want = 1
		}
		if m.Int64() != want {
			t.Fatalf("slot %d decrypted to %v, want %d", i, m, want)
		}
	}
}
