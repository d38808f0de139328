package lib

import "testing"

func TestLib(t *testing.T) {
	if OnlyTests()+testHelper()+countdown(2)+Seam() == 0 {
		t.Fatal("unreachable")
	}
}
