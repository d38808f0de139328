package costmodel

import (
	"math"
	"testing"
)

func TestVectorGet(t *testing.T) {
	v := Vector{AggCPU: 11, AggBytes: 22, PartExpCPU: 33, PartExpBytes: 44, PartMaxCPU: 55, PartMaxBytes: 66}
	wants := map[Metric]float64{
		AggCPU: 11, AggBytes: 22, PartExpCPU: 33, PartExpBytes: 44, PartMaxCPU: 55, PartMaxBytes: 66,
	}
	for m, w := range wants {
		if got := v.Get(m); got != w {
			t.Errorf("Get(%v) = %g, want %g", m, got, w)
		}
	}
}

func TestLimitsViolated(t *testing.T) {
	l := Limits{AggCPU: 100, PartMaxBytes: 4e9}
	if m, bad := l.Violated(Vector{AggCPU: 50, PartMaxBytes: 1e9}); bad {
		t.Errorf("within-limits vector flagged as violating %v", m)
	}
	m, bad := l.Violated(Vector{AggCPU: 150})
	if !bad || m != AggCPU {
		t.Errorf("AggCPU violation not detected: %v %v", m, bad)
	}
	m, bad = l.Violated(Vector{PartMaxBytes: 5e9})
	if !bad || m != PartMaxBytes {
		t.Errorf("PartMaxBytes violation not detected: %v %v", m, bad)
	}
	// Zero limits mean unlimited.
	if _, bad := (Limits{}).Violated(Vector{AggCPU: 1e18}); bad {
		t.Error("zero limits should not constrain")
	}
}

// TestLimitsViolatedOrder pins which metric Violated names when two limits are
// exceeded at once: the earlier one in the order AggCPU, AggBytes, PartExpCPU,
// PartExpBytes, PartMaxCPU, PartMaxBytes — callers print it.
func TestLimitsViolatedOrder(t *testing.T) {
	over := [...]Vector{{AggCPU: 2}, {AggBytes: 2}, {PartExpCPU: 2}, {PartExpBytes: 2}, {PartMaxCPU: 2}, {PartMaxBytes: 2}}
	exceed := func(a, b Metric) Vector { return over[a].add(over[b]) }
	all := Limits{AggCPU: 1, AggBytes: 1, PartExpCPU: 1, PartExpBytes: 1, PartMaxCPU: 1, PartMaxBytes: 1}
	for first := AggCPU; first <= PartMaxBytes; first++ {
		for second := first + 1; second <= PartMaxBytes; second++ {
			if m, bad := all.Violated(exceed(second, first)); !bad || m != first {
				t.Errorf("%v and %v both exceeded: Violated = %v, %v; want %v", first, second, m, bad, first)
			}
		}
		// A limit of zero on the earlier metric hands the report to the later one.
		only := Limits{PartMaxBytes: 1}
		if m, bad := only.Violated(exceed(first, PartMaxBytes)); !bad || m != PartMaxBytes {
			t.Errorf("%v unlimited, %v exceeded: Violated = %v, %v", first, PartMaxBytes, m, bad)
		}
	}
}

func TestMetricString(t *testing.T) {
	for m := AggCPU; m <= PartMaxBytes; m++ {
		if m.String() == "" {
			t.Errorf("metric %d has empty name", m)
		}
	}
	if Metric(99).String() == "" {
		t.Error("unknown metric has empty name")
	}
}

func TestDefaultModelMagnitudes(t *testing.T) {
	m := Default()
	// Key generation: the paper reports ~700 MB and ~14 min per member.
	if m.KeyGenBytes < 5e8 || m.KeyGenBytes > 1e9 {
		t.Errorf("KeyGenBytes = %g, want ~7e8", m.KeyGenBytes)
	}
	if m.KeyGenCPU < 600 || m.KeyGenCPU > 1200 {
		t.Errorf("KeyGenCPU = %g, want ~840 s", m.KeyGenCPU)
	}
	// One ciphertext ≈ 1.1 MB: the paper's per-participant traffic figure.
	if m.CtBytes < 5e5 || m.CtBytes > 5e6 {
		t.Errorf("CtBytes = %g, want ~1.1e6", m.CtBytes)
	}
	// 2^15 slots — enough for the zip-code query's 41,683 categories in two
	// ciphertexts and C=2^15 evaluation queries in one.
	if m.Slots != 1<<15 {
		t.Errorf("Slots = %d, want 2^15", m.Slots)
	}
	// Encrypted comparison must be far more expensive than addition — this
	// asymmetry is why the exponential mechanism is the hard case.
	if m.HECmp < 1000*m.HEAdd {
		t.Error("HECmp should dwarf HEAdd")
	}
}

func TestPlatformsAndPower(t *testing.T) {
	if Server.CPUMult != 1.0 {
		t.Error("server multiplier must be 1")
	}
	// Pi 4 ≈ 7.8× the servers (767 µs vs 6 ms RSA signature, Section 7.5).
	if Pi4.CPUMult < 6 || Pi4.CPUMult > 10 {
		t.Errorf("Pi4 multiplier = %g", Pi4.CPUMult)
	}
	// 14 minutes of committee compute must stay under 5% of an iPhone SE
	// battery (Figure 11: "below 5% for all of the queries we tried").
	mah := PowerMAh(Pi4, 840)
	if mah <= 0 || mah >= 0.05*IPhoneSEBatteryMAh {
		t.Errorf("keygen power = %g mAh, want (0, %g)", mah, 0.05*IPhoneSEBatteryMAh)
	}
}

func TestGeoRTT(t *testing.T) {
	sites := []GeoSite{Mumbai, NewYork, Paris, Sydney}
	for _, a := range sites {
		if RTT(a, a) != 0 {
			t.Errorf("RTT(%v,%v) != 0", a, a)
		}
		for _, b := range sites {
			if RTT(a, b) != RTT(b, a) {
				t.Errorf("RTT not symmetric for %v,%v", a, b)
			}
		}
		if a.String() == "" {
			t.Error("empty site name")
		}
	}
	worst := MaxRTT(sites)
	if worst != RTT(Paris, Sydney) {
		t.Errorf("MaxRTT = %g, want Paris–Sydney %g", worst, RTT(Paris, Sydney))
	}
}

// Section 7.5's two headline numbers as shape checks: geo-distribution
// increased the Gumbel MPC from 73.8 s to 521.2 s (+606%), and 4 Pi-class
// parties out of 42 increased it to 111.7 s (+51%).
func TestMPCWallClockShapes(t *testing.T) {
	const cpu = 60.0    // per-member online compute, seconds
	const rounds = 1600 // a comparison-heavy MPC has many rounds
	local := MPCWallClock(cpu, rounds, Server, 0.0005)
	geo := MPCWallClock(cpu, rounds, Server, MaxRTT([]GeoSite{Mumbai, NewYork, Paris, Sydney}))
	if geo < 4*local {
		t.Errorf("geo distribution should blow up round-bound MPCs: local %g, geo %g", local, geo)
	}
	slow := MPCWallClock(cpu, rounds, Pi4, 0.0005)
	ratio := slow / local
	if ratio < 1.2 || math.IsNaN(ratio) {
		t.Errorf("slow devices should slow the MPC: ratio %g", ratio)
	}
}

func TestEnergyMetrics(t *testing.T) {
	v := Vector{PartExpCPU: 36, PartExpBytes: 1e6, PartMaxCPU: 360, PartMaxBytes: 1e9}
	// 36 s × 0.0833 mAh/s = 3 mAh + 1 MB × 0.056 mAh/MB ≈ 3.056 mAh.
	exp := v.Get(PartExpEnergy)
	if exp < 3.0 || exp > 3.2 {
		t.Errorf("expected energy = %g mAh, want ~3.06", exp)
	}
	mx := v.Get(PartMaxEnergy)
	if mx < 85 || mx > 87 { // 30 mAh compute + 56 mAh radio
		t.Errorf("max energy = %g mAh, want ~86", mx)
	}
	if PartExpEnergy.String() == "" || PartMaxEnergy.String() == "" {
		t.Error("energy metrics unnamed")
	}
	// Energy mixes both axes: zeroing bytes must lower it.
	lighter := v
	lighter.PartExpBytes = 0
	if lighter.Get(PartExpEnergy) >= exp {
		t.Error("radio bytes not contributing to energy")
	}
}

// add returns the element-wise sum.
func (v Vector) add(o Vector) Vector {
	return Vector{
		AggCPU:       v.AggCPU + o.AggCPU,
		AggBytes:     v.AggBytes + o.AggBytes,
		PartExpCPU:   v.PartExpCPU + o.PartExpCPU,
		PartExpBytes: v.PartExpBytes + o.PartExpBytes,
		PartMaxCPU:   v.PartMaxCPU + o.PartMaxCPU,
		PartMaxBytes: v.PartMaxBytes + o.PartMaxBytes,
	}
}
