// Command app is deadexport testdata: the module's non-test caller.
package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"

	"arboretum/tools/arblint/internal/checkers/deadexport/testdata/src/internal/lib"
)

func main() {
	var h hash.Hash = sha256.New()
	var r io.Reader = &lib.Reader{}
	var n lib.Node = lib.Leaf{}
	fmt.Println(lib.Live(), h, r, n)
}
