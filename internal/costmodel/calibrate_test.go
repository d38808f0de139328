package costmodel

import (
	"reflect"
	"testing"

	"arboretum/internal/bgv"
)

// TestCalibrateProducesUsableModel calibrates on the one-prime test ring
// (L = 1): the measured model must be usable by the planner as it stands.
func TestCalibrateProducesUsableModel(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration benchmarks real crypto")
	}
	m, err := CalibrateRing(bgv.TestParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.sanity(); err != nil {
		t.Errorf("sanity: %v", err)
	}
	if m.Slots != 1<<10 {
		t.Errorf("Slots = %d, want the ring degree 1024", m.Slots)
	}
	// Everything that is not an FHE constant keeps the deployment default:
	// reverting the measured fields must give back Default() exactly.
	d := Default()
	m.Slots, m.CtBytes = d.Slots, d.CtBytes
	m.HEEnc, m.HEAdd, m.HEMulCt, m.HEMulPlain = d.HEEnc, d.HEAdd, d.HEMulCt, d.HEMulPlain
	m.HECmp, m.HEExp = d.HECmp, d.HEExp
	if !reflect.DeepEqual(m, d) {
		t.Errorf("calibration touched a non-FHE constant:\n got %+v\nwant %+v", m, d)
	}
}

func TestSanityRejectsBrokenModels(t *testing.T) {
	m := Default()
	m.HEAdd = 0
	if err := m.sanity(); err == nil {
		t.Error("zero HEAdd accepted")
	}
	m = Default()
	m.HEMulCt = m.HEAdd / 2
	if err := m.sanity(); err == nil {
		t.Error("mult < add accepted")
	}
	m = Default()
	m.MPCPerCmpCPU = m.MPCPerMultCPU / 2
	if err := m.sanity(); err == nil {
		t.Error("cmp < mult accepted")
	}
}
