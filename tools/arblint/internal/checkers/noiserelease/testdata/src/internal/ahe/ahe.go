// Package ahe is noiserelease analyzer testdata: a stand-in exposing the
// raw-aggregate producer names the real internal/ahe exports. The policy
// table matches it by path suffix.
package ahe

// Ciphertext mirrors the real homomorphic ciphertext shape.
type Ciphertext struct {
	C int64
}

// PrivateKey mirrors the real decryption key shape.
type PrivateKey struct {
	D int64
}

// Decrypt mirrors the real raw-aggregate producer: its result is a
// pre-noise sum.
func (k *PrivateKey) Decrypt(ct *Ciphertext) (int64, error) {
	return ct.C - k.D, nil
}
