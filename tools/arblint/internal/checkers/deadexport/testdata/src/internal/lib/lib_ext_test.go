package lib_test

import "testing"

// Leaf is the external test package's own type: its exported method cannot
// be the package's Leaf's.
type Leaf struct{}

func (Leaf) Twice() int { return 2 }

// ExtParked is an exported function of an external test file.
func ExtParked() int { return Leaf{}.Twice() } // want `ExtParked is an exported function of a _test\.go file`

func TestExt(t *testing.T) {
	if ExtParked() != 2 {
		t.Fatal("unreachable")
	}
}
