package costmodel

import (
	"testing"

	"arboretum/internal/bgv"
)

func TestCalibrateRingTestRing(t *testing.T) {
	m, err := CalibrateRing(bgv.TestRNSParams)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots != bgv.TestRNSParams.N {
		t.Fatalf("Slots = %d, want the ring degree %d", m.Slots, bgv.TestRNSParams.N)
	}
	wantBytes := float64(16 * len(bgv.TestRNSParams.Qi) * bgv.TestRNSParams.N)
	if m.CtBytes != wantBytes {
		t.Fatalf("CtBytes = %v, want the serialized size %v", m.CtBytes, wantBytes)
	}
	if m.HEEnc <= 0 || m.HEAdd <= 0 || m.HEMulCt <= 0 {
		t.Fatalf("non-positive measured cost: enc=%v add=%v mul=%v", m.HEEnc, m.HEAdd, m.HEMulCt)
	}
	// The deep-circuit estimates must scale with the measured multiplication
	// so the planner's orderings survive recalibration.
	d := Default()
	wantCmp := d.HECmp * (m.HEMulCt / d.HEMulCt)
	if m.HECmp != wantCmp {
		t.Fatalf("HECmp = %v, want %v (mul-ratio scaled)", m.HECmp, wantCmp)
	}
}

func TestCalibrateRingRejectsBadParams(t *testing.T) {
	if _, err := CalibrateRing(bgv.Params{N: 1000, T: 65537, Qi: []uint64{5}}); err == nil {
		t.Fatal("CalibrateRing accepted invalid ring parameters")
	}
}
