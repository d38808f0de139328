package main

import (
	"math"
	"sort"
)

// metricDef is one end-to-end metric: its unit, which direction is better,
// and the share of the base value by which it may worsen before the
// comparator calls it a regression. floor is an absolute slack in the
// metric's unit below which a worsening is never a regression (set-up time
// of a fraction of a second moves by scheduling noise alone).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	floor  float64
}

// endToEnd is the contract later PRs claim against; BENCHMARK.json mirrors
// it (TestBenchmarkJSONMatchesTables keeps the two in step).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, floor: 0.1},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_s_per_op", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", better: "lower", bound: 0.05},
}

// layerDef names one per-layer metric; the layer is the package name before
// the dot. Per-layer metrics have no bound: they explain, they do not gate.
type layerDef struct {
	name   string
	unit   string
	better string
}

// perLayer lists every metric a traced run prints, on every workload; a
// layer a workload does not reach reports 0.
var perLayer = []layerDef{
	{"certify.us_per_query", "us", "lower"},
	{"planner.ms_per_plan", "ms", "lower"},
	{"planner.alloc_kb_per_plan", "kB", "lower"},
	{"planner.prefixes_per_plan", "count", "lower"},
	{"runtime.new_deployment_ms", "ms", "lower"},
	{"runtime.run_ms", "ms", "lower"},
	{"runtime.device_bytes_per_device", "B", "lower"},
	{"runtime.aggregator_bytes_per_op", "B", "lower"},
	{"runtime.committee_bytes_per_op", "B", "lower"},
	{"runtime.committees_formed_per_op", "count", "lower"},
	{"runtime.vsr_transfers_per_op", "count", "lower"},
	{"runtime.zkps_verified_per_op", "count", "lower"},
	{"runtime.zkps_rejected_per_op", "count", "lower"},
	{"runtime.audits_served_per_op", "count", "lower"},
	{"runtime.attributed_cpu_share", "share", "higher"},
	{"runtime.unexplained_cpu_s", "s", "lower"},
	{"ahe.keygen_ms", "ms", "lower"},
	{"ahe.encrypt_us", "us", "lower"},
	{"ahe.add_us", "us", "lower"},
	{"ahe.decrypt_us", "us", "lower"},
	{"ahe.attributed_cpu_s", "s", "lower"},
	{"zkp.prove_us", "us", "lower"},
	{"zkp.verify_us", "us", "lower"},
	{"zkp.attributed_cpu_s", "s", "lower"},
	{"merkle.build_ms", "ms", "lower"},
	{"merkle.prove_verify_us", "us", "lower"},
	{"sortition.select_ms", "ms", "lower"},
	{"shamir.new_field_ms", "ms", "lower"},
	{"shamir.split_us", "us", "lower"},
	{"shamir.reconstruct_us", "us", "lower"},
	{"shamir.attributed_cpu_s", "s", "lower"},
	{"vsr.redistribute_ms", "ms", "lower"},
	{"vsr.attributed_cpu_s", "s", "lower"},
	{"mpc.rounds_per_op", "count", "lower"},
	{"mpc.comparisons_per_op", "count", "lower"},
	{"mpc.less_us", "us", "lower"},
	{"mpc.mul_us", "us", "lower"},
	{"mpc.us_per_round", "us", "lower"},
	{"mpc.attributed_cpu_s", "s", "lower"},
	{"service.admit_ms_p50", "ms", "lower"},
	{"service.reject_ms_p50", "ms", "lower"},
	{"service.status_us_p50", "us", "lower"},
	{"service.queue_wait_ms_p50", "ms", "lower"},
	{"service.execute_ms_p50", "ms", "lower"},
	{"service.job_tail_ms", "ms", "lower"},
	{"service.retries", "count", "lower"},
	{"ledger.reserve_commit_us", "us", "lower"},
	{"wal.append_us", "us", "lower"},
	{"bench.op_tail_ms", "ms", "lower"},
	{"bench.op_tail_pct", "%", "higher"},
	{"bench.op_tail_n", "count", "higher"},
	{"bench.op_self_ms", "ms", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},
	{"bench.speed_factor", "ratio", "higher"},
	{"bench.failed_share", "share", "lower"},
}

// tailLadder is the percentiles the tail picker chooses from.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest ladder percentile that leaves at least
// ten of n samples beyond it — a tail read off fewer samples does not repeat
// from run to run. With fewer than twenty samples no percentile qualifies
// and it returns 100: the caller reports the maximum and says so.
func tailPercentile(n int) float64 {
	best := 100.0
	for _, p := range tailLadder {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// rank is the nearest-rank position (1-based) of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9)) // p·n/100 in floats can land a hair above a whole rank
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of xs (not modified).
// An empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the usual midpoint median (mean of the two middle samples for
// an even count), which is what the quartile arithmetic below divides by.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the spread
// the comparator prints is the spread the driver computes. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median; 0 when it
// cannot be computed.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// worsening is how much worse val is than base as a share of base, signed:
// positive is worse in the metric's own direction.
func (d metricDef) worsening(base, val float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - val) / base
	}
	return (val - base) / base
}

// regressed applies the bound: val is a regression against base when it is
// worse by more than bound·base and by more than the absolute floor.
func (d metricDef) regressed(base, val float64) bool {
	w := d.worsening(base, val)
	return w > d.bound && w*math.Abs(base) > d.floor
}
