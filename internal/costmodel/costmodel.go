// Package costmodel implements Arboretum's cost model (Section 4.6): a table
// of benchmark-derived constants for each building block (HE operations, MPC
// start-up and incremental costs, ZKP generation/verification, traffic
// sizes), six-metric cost vectors, platform multipliers for heterogeneous
// devices, a geographic latency model, and the battery/power model of
// Section 7.4.
//
// The paper benchmarks its primitives on PowerEdge R430 servers and
// extrapolates deployment costs; the constants below are calibrated to the
// magnitudes the paper reports (e.g. ~700 MB and ~14 min for a key-generation
// committee member, ~1.1 MB of aggregator traffic per participant, 7–62 s of
// expected participant computation). As the paper notes, scoring does not
// need exact costs — it needs to order candidate plans, and "even a rough
// cost model should suffice for this purpose."
package costmodel

import "fmt"

// Vector is the six-metric cost of a plan (Section 4.2): two aggregator
// metrics and four participant metrics (expected and maximum, because only a
// few devices serve on committees but those pay much more).
type Vector struct {
	AggCPU       float64 // aggregator computation, core-seconds
	AggBytes     float64 // aggregator bytes sent
	PartExpCPU   float64 // expected participant computation, seconds
	PartExpBytes float64 // expected participant bytes sent
	PartMaxCPU   float64 // maximum participant computation, seconds
	PartMaxBytes float64 // maximum participant bytes sent
}

// Add returns the element-wise sum.
func (v Vector) Add(o Vector) Vector {
	return Vector{
		AggCPU:       v.AggCPU + o.AggCPU,
		AggBytes:     v.AggBytes + o.AggBytes,
		PartExpCPU:   v.PartExpCPU + o.PartExpCPU,
		PartExpBytes: v.PartExpBytes + o.PartExpBytes,
		PartMaxCPU:   v.PartMaxCPU + o.PartMaxCPU,
		PartMaxBytes: v.PartMaxBytes + o.PartMaxBytes,
	}
}

// Metric selects one component of a Vector as an optimization goal or limit.
type Metric int

// The six supported metrics, plus two derived energy metrics (the paper:
// "Other metrics, such as energy, should not be difficult to add if
// desired" — Section 4.2). Energy mixes compute drain and radio drain, so
// minimizing it can pick a different plan than minimizing CPU or bytes
// alone.
const (
	AggCPU Metric = iota
	AggBytes
	PartExpCPU
	PartExpBytes
	PartMaxCPU
	PartMaxBytes
	PartExpEnergy // derived: expected device battery drain, mAh
	PartMaxEnergy // derived: worst-case device battery drain, mAh
)

var metricNames = map[Metric]string{
	AggCPU: "aggregator-cpu", AggBytes: "aggregator-bytes",
	PartExpCPU: "participant-expected-cpu", PartExpBytes: "participant-expected-bytes",
	PartMaxCPU: "participant-max-cpu", PartMaxBytes: "participant-max-bytes",
	PartExpEnergy: "participant-expected-energy", PartMaxEnergy: "participant-max-energy",
}

// Energy model for the derived metrics: a phone-class device draws
// ~0.3 A at 5 V under computational load (Section 7.4's measurements) and
// spends roughly 1 J per transmitted MB on the radio.
const (
	cpuMAhPerSecond = 0.3 * 1000 / 3600 // ≈ 0.083 mAh per compute-second
	radioMAhPerByte = 5.6e-8            // ≈ 0.056 mAh per transmitted MB
)

// EnergyMAh converts a (cpu seconds, bytes) pair to battery drain.
func EnergyMAh(cpuSeconds, bytes float64) float64 {
	return cpuSeconds*cpuMAhPerSecond + bytes*radioMAhPerByte
}

func (m Metric) String() string {
	if s, ok := metricNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Get extracts the metric from a vector.
func (v Vector) Get(m Metric) float64 {
	switch m {
	case AggCPU:
		return v.AggCPU
	case AggBytes:
		return v.AggBytes
	case PartExpCPU:
		return v.PartExpCPU
	case PartExpBytes:
		return v.PartExpBytes
	case PartMaxCPU:
		return v.PartMaxCPU
	case PartMaxBytes:
		return v.PartMaxBytes
	case PartExpEnergy:
		return EnergyMAh(v.PartExpCPU, v.PartExpBytes)
	case PartMaxEnergy:
		return EnergyMAh(v.PartMaxCPU, v.PartMaxBytes)
	default:
		return 0
	}
}

// Limits bounds acceptable plans; zero means unlimited.
type Limits struct {
	AggCPU       float64
	AggBytes     float64
	PartExpCPU   float64
	PartExpBytes float64
	PartMaxCPU   float64
	PartMaxBytes float64
}

// Violated reports the first limit a cost vector exceeds, if any, in the
// order of the fields above.
func (l Limits) Violated(v Vector) (Metric, bool) {
	switch {
	case l.AggCPU > 0 && v.AggCPU > l.AggCPU:
		return AggCPU, true
	case l.AggBytes > 0 && v.AggBytes > l.AggBytes:
		return AggBytes, true
	case l.PartExpCPU > 0 && v.PartExpCPU > l.PartExpCPU:
		return PartExpCPU, true
	case l.PartExpBytes > 0 && v.PartExpBytes > l.PartExpBytes:
		return PartExpBytes, true
	case l.PartMaxCPU > 0 && v.PartMaxCPU > l.PartMaxCPU:
		return PartMaxCPU, true
	case l.PartMaxBytes > 0 && v.PartMaxBytes > l.PartMaxBytes:
		return PartMaxBytes, true
	}
	return 0, false
}

// Model holds the benchmark-derived constants. All times are seconds on the
// reference platform (server core); all sizes are bytes.
type Model struct {
	// --- homomorphic encryption (BGV, poly degree 2^15, 135-bit modulus) ---
	CtBytes    float64 // one ciphertext on the wire
	Slots      int     // plaintext slots per ciphertext
	HEEnc      float64 // encrypt one ciphertext
	HEAdd      float64 // homomorphic addition
	HEMulPlain float64 // plaintext multiplication
	HEMulCt    float64 // ciphertext multiplication + relinearization
	HECmp      float64 // one encrypted comparison (FHE circuit)
	HEExp      float64 // one encrypted exponential evaluation
	HEDecShare float64 // one member's distributed-decryption share

	// --- zero-knowledge proofs (G16 via ZoKrates/bellman) ---
	ZKPBytes  float64 // proof size on the wire
	ZKPGen    float64 // prove a one-hot/range statement (reference core)
	ZKPVerify float64 // verify one proof

	// --- MPC (SPDZ-wise Shamir in MP-SPDZ) per committee member ---
	MPCStartupBytes float64 // joining an MPC: setup, key material
	MPCStartupCPU   float64
	MPCPerMultBytes float64 // per multiplication gate (online + offline)
	MPCPerMultCPU   float64
	MPCPerCmpBytes  float64 // per comparison (≈ bit-decomposition circuit)
	MPCPerCmpCPU    float64
	MPCFirstCmpPen  float64 // extra CPU for the first comparison: triple
	// generation warm-up (Section 6)
	MPCPerExpBytes float64 // fixed-point exponential in MPC
	MPCPerExpCPU   float64
	MPCNoiseBytes  float64 // jointly sampling one noise value
	MPCNoiseCPU    float64

	// --- committee-level composite operations ---
	KeyGenBytes   float64 // per key-generation-committee member (~700 MB)
	KeyGenCPU     float64 // (~14 min)
	DecPerCtBytes float64 // per decryption-committee member per ciphertext
	DecPerCtCPU   float64
	VSRBytes      float64 // hand one secret to the next committee, per member

	// --- misc ---
	SigVerify      float64 // verify one signature (sortition tickets, certs)
	MerkleHash     float64 // one hash when building audit trees
	AuditRespBytes float64 // answer one audit challenge (leaf + proof)
	CertBytes      float64 // query authorization certificate
	ShareBytes     float64 // one secret share on the wire
}

// Default returns the reference model, calibrated to the paper's reported
// magnitudes (see the package comment).
func Default() *Model {
	return &Model{
		CtBytes: 1.1e6, // ≈ 2 polys × 2^15 coeffs × 17 B
		Slots:   1 << 15,
		HEEnc:   2.0, // phone-visible magnitude folded at platform level
		// HEAdd at 8 ms per 2^15-slot addition reproduces Figure 10's
		// crossovers: with A=1,000 core-hours the ZKP checks plus the sum
		// loop overrun the budget at N=2^28, pushing the planner to a
		// device sum tree one step before the ZKP checks alone become
		// infeasible (2^29); with A=5,000 the same happens at 2^30.
		HEAdd:      0.008,
		HEMulPlain: 0.020,
		HEMulCt:    0.200,
		// Comparisons and exponentials on encrypted values are deep FHE
		// circuits — the asymmetry of Section 3.3 that makes the
		// exponential mechanism so much harder than the Laplace mechanism.
		HECmp:      1800.0,
		HEExp:      3600.0,
		HEDecShare: 0.5,

		// ZKPVerify is calibrated to Figure 10's crossover: with a
		// 1,000-core-hour budget the aggregator can still check 2^28 proofs
		// (745 core-hours) but not 2^29 (1,491) — "the red line stops".
		ZKPBytes:  260,
		ZKPGen:    5.0,
		ZKPVerify: 0.010,

		MPCStartupBytes: 5e6,
		MPCStartupCPU:   2.0,
		MPCPerMultBytes: 1e4,
		MPCPerMultCPU:   0.002,
		MPCPerCmpBytes:  4e5,
		MPCPerCmpCPU:    0.10,
		MPCFirstCmpPen:  5.0,
		MPCPerExpBytes:  8e5,
		MPCPerExpCPU:    0.25,
		MPCNoiseBytes:   2e5,
		MPCNoiseCPU:     0.05,

		KeyGenBytes:   7e8,   // ~700 MB (Section 7.2)
		KeyGenCPU:     840.0, // ~14 min
		DecPerCtBytes: 6e6,
		DecPerCtCPU:   4.0,
		VSRBytes:      2e5,

		SigVerify:      0.0008, // RSA-2048 verify, 767 µs sign (Section 7.5)
		MerkleHash:     2e-7,
		AuditRespBytes: 1200,
		CertBytes:      4096,
		ShareBytes:     64,
	}
}

// Platform scales reference-core times to a device class (Section 7.5: an
// RSA-2048 signature takes 767 µs on the servers but 6 ms on a Raspberry
// Pi 4 — a factor of ~8; phones of the study's era are comparable).
type Platform struct {
	Name    string
	CPUMult float64 // multiply reference seconds by this
	// ActiveAmps is the current drawn under computational load at 5 V, for
	// the battery model of Section 7.4.
	ActiveAmps float64
}

// Reference platforms.
var (
	Server = Platform{Name: "server", CPUMult: 1.0, ActiveAmps: 0}
	Phone  = Platform{Name: "phone", CPUMult: 8.0, ActiveAmps: 0.30}
	Pi4    = Platform{Name: "raspberry-pi-4", CPUMult: 7.8, ActiveAmps: 0.30}
)

// PowerMAh converts compute seconds on a platform to battery drain in mAh
// (Section 7.4: measured with a USB power meter, idle draw subtracted).
func PowerMAh(p Platform, cpuSeconds float64) float64 {
	return p.ActiveAmps * 1000 * cpuSeconds / 3600
}

// IPhoneSEBatteryMAh is the 2022 iPhone SE battery the paper compares
// against in Figure 11.
const IPhoneSEBatteryMAh = 1624.0

// GeoSite is a location in the geo-distribution experiment (Section 7.5).
type GeoSite int

// The four sites of the experiment.
const (
	Mumbai GeoSite = iota
	NewYork
	Paris
	Sydney
)

var geoNames = [...]string{"Mumbai", "New York", "Paris", "Sydney"}

func (g GeoSite) String() string { return geoNames[g] }

// RTT returns the modeled round-trip time between two sites in seconds
// (public inter-region latencies, the tc settings of Section 7.5).
func RTT(a, b GeoSite) float64 {
	var rtts = [4][4]float64{
		{0.000, 0.190, 0.110, 0.150},
		{0.190, 0.000, 0.075, 0.200},
		{0.110, 0.075, 0.000, 0.280},
		{0.150, 0.200, 0.280, 0.000},
	}
	return rtts[a][b]
}

// MaxRTT returns the worst pairwise RTT among the sites — MPC rounds are
// bottlenecked by the slowest link.
func MaxRTT(sites []GeoSite) float64 {
	var worst float64
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if r := RTT(sites[i], sites[j]); r > worst {
				worst = r
			}
		}
	}
	return worst
}

// MPCWallClock estimates the wall-clock time of an MPC with the given
// per-member compute time, round count, and deployment shape: rounds are
// bottlenecked by the slowest member platform and the worst link RTT
// (Section 7.5: "MPC rounds are bottlenecked by the slowest device, so the
// exact number of slow devices should not matter (much)").
func MPCWallClock(cpuSeconds float64, rounds int, slowest Platform, maxRTT float64) float64 {
	return cpuSeconds*slowest.CPUMult + float64(rounds)*maxRTT
}
