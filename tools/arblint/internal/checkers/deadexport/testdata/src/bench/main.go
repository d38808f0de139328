// Command bench is deadexport testdata: a second module, like bench/, whose
// calls count as uses.
package main

import (
	"fmt"

	"arboretum/tools/arblint/internal/checkers/deadexport/testdata/src/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly()) }
