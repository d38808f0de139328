// Package service is noiserelease analyzer testdata: a release-boundary
// package (policy.ReleaseBoundaries matches it by path suffix) that leaks
// raw aggregates to output sinks directly, through a helper hop, and — in
// the clean cases — releases only noised or certified values.
package service

import (
	"encoding/json"
	"fmt"
	"io"

	ahe "arboretum/tools/arblint/internal/checkers/noiserelease/testdata/src/internal/ahe"
	mech "arboretum/tools/arblint/internal/checkers/noiserelease/testdata/src/internal/mechanism"
	runtime "arboretum/tools/arblint/internal/checkers/noiserelease/testdata/src/internal/runtime"
)

// LeakDirect decrypts and prints the raw sum with no noise in between.
func LeakDirect(key *ahe.PrivateKey, ct *ahe.Ciphertext) {
	raw, _ := key.Decrypt(ct)
	fmt.Println(raw) // want `raw aggregate from ahe.Decrypt reaches release sink fmt.Println`
}

// writeJSON is the helper the interprocedural hop goes through: its
// parameter reaches a JSON encoder, so calling it with tainted data is a
// release.
func writeJSON(w io.Writer, v int64) {
	_ = json.NewEncoder(w).Encode(v)
}

// LeakViaHelper launders the raw sum through writeJSON; the helper's
// summary makes the call site the sink.
func LeakViaHelper(w io.Writer, key *ahe.PrivateKey, ct *ahe.Ciphertext) {
	raw, _ := key.Decrypt(ct)
	writeJSON(w, raw) // want `raw aggregate from ahe.Decrypt reaches release sink json.Encode via writeJSON`
}

// LeakMarshal leaks the raw sum through json.Marshal.
func LeakMarshal(key *ahe.PrivateKey, ct *ahe.Ciphertext) []byte {
	raw, _ := key.Decrypt(ct)
	out, _ := json.Marshal(raw) // want `raw aggregate from ahe.Decrypt reaches release sink json.Marshal`
	return out
}

// ReleaseNoised mixes a mechanism noise draw into the raw sum before
// printing: the noise bit suppresses the source bit at the sink.
func ReleaseNoised(rng mech.Rand, key *ahe.PrivateKey, ct *ahe.Ciphertext) {
	raw, _ := key.Decrypt(ct)
	noised := raw + mech.Laplace(rng, 1)
	fmt.Println(noised)
}

// ReleaseCertified encodes only the sanitizer's output: runtime.Run is the
// certified release pipeline.
func ReleaseCertified(w io.Writer) error {
	res, err := runtime.Run("count")
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(res)
}

// Annotated is the recorded exception: the directive suppresses the leak on
// the next line.
func Annotated(key *ahe.PrivateKey, ct *ahe.Ciphertext) {
	raw, _ := key.Decrypt(ct)
	//arblint:ignore noiserelease recorded exception for analyzer testdata
	fmt.Println(raw)
}
