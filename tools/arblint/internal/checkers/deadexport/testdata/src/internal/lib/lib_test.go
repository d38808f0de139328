package lib

import (
	"fmt"
	"testing"
)

func TestLib(t *testing.T) {
	if OnlyTests()+testHelper()+countdown(2)+Seam()+(Leaf{}).Twice()+Parked()+(Leaf{}).helper() == 0 {
		t.Fatal("unreachable")
	}
}

func BenchmarkLib(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Live()
	}
}

func FuzzLib(f *testing.F) { f.Fuzz(func(t *testing.T, n int) { countdown(n & 3) }) }

func ExampleLive() { fmt.Println(Live()) }

// Twice is an exported method of a non-test type, parked in a test file.
func (Leaf) Twice() int { return 2 } // want `Leaf\.Twice is an exported method declared in a _test\.go file`

// helper is an unexported method of a non-test type: a test helper.
func (Leaf) helper() int { return 1 }

// Parked is an exported function no entry point names.
func Parked() int { return 6 } // want `Parked is an exported function of a _test\.go file`

// counter is a type the tests declare; its exported method is how it meets
// io.Reader, and stays.
type counter struct{ n int }

func (c *counter) Read(p []byte) (int, error) { c.n += len(p); return len(p), nil }
