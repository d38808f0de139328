// Package lib is deadexport testdata: functions and methods that non-test
// code uses, that only tests use, and that only the bench/ module uses.
package lib

// Live is called from cmd/app.
func Live() int { return helper() + Reader{}.n }

// helper is unexported and called from Live.
func helper() int { return 1 }

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 2 } // want `OnlyTests is referenced by no non-test code`

// testHelper is unexported and called from lib_test.go alone.
func testHelper() int { return 3 } // want `testHelper is referenced by no non-test code`

// countdown calls only itself outside tests: recursion is not a use.
func countdown(n int) int { // want `countdown is referenced by no non-test code`
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// BenchOnly is called from the bench module alone.
func BenchOnly() int { return 4 }

// Node is an interface the module declares; its marker method is how Leaf
// joins it.
type Node interface{ node() }

// Leaf implements Node and fmt.Stringer, and has a Sum that hash.Hash (which
// cmd/app names) would call, but Leaf is no hash.Hash.
type Leaf struct{}

func (Leaf) node() {}

// String is reached through fmt.Stringer.
func (Leaf) String() string { return "leaf" }

// Sum is named like hash.Hash's Sum without implementing hash.Hash.
func (Leaf) Sum(b []byte) []byte { return b } // want `Leaf\.Sum is referenced by no non-test code`

// Reader is handed out as an io.Reader, which cmd/app names.
type Reader struct{ n int }

// Read is reached through io.Reader.
func (r *Reader) Read(p []byte) (int, error) { return copy(p, "r"), nil }

// Seam is a kept test seam.
//
//arblint:ignore deadexport analyzer testdata: the directive suppresses the finding
func Seam() int { return 5 }
