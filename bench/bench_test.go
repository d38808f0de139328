package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 100}, {5, 100}, {19, 100}, {20, 50}, {39, 50}, {40, 75},
		{100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The property behind the table: the chosen percentile leaves at least
	// ten samples beyond it, and the next one on the ladder does not.
	for n := 20; n < 3000; n += 7 {
		p := tailPercentile(n)
		if beyond := n - rank(n, p); beyond < 10 {
			t.Fatalf("n=%d: p%g leaves only %d samples beyond", n, p, beyond)
		}
		for _, q := range tailLadder {
			if q > p && n-rank(n, q) >= 10 {
				t.Fatalf("n=%d: picked p%g though p%g also leaves ten beyond", n, p, q)
			}
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %g, want 3 (nearest rank)", got)
	}
	if got := percentile(xs, 100); got != 9 {
		t.Errorf("p100 = %g, want 9", got)
	}
	if got := median(xs); got != 3.5 {
		t.Errorf("median = %g, want 3.5", got)
	}
	// statistics.quantiles([3,1,4,1,5,9,2,6], n=4) == [1.25, 3.5, 5.75]
	if q1, q3 := quartiles(xs); q1 != 1.25 || q3 != 5.75 {
		t.Errorf("quartiles = %g, %g; Python's statistics.quantiles gives 1.25, 5.75", q1, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(ten), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestBoundArithmetic(t *testing.T) {
	lower := metricDef{name: "alloc", better: "lower", bound: 0.10}
	higher := metricDef{name: "ops_per_s", better: "higher", bound: 0.10}
	floored := metricDef{name: "setup_s", better: "lower", bound: 0.25, floor: 0.1}
	for _, c := range []struct {
		d         metricDef
		base, val float64
		worse     float64
		regressed bool
	}{
		{lower, 100, 109, 0.09, false},
		{lower, 100, 111, 0.11, true},
		{lower, 100, 50, -0.5, false},
		{higher, 10, 9.1, 0.09, false},
		{higher, 10, 8.9, 0.11, true},
		{higher, 10, 20, -1, false},
		{floored, 0.2, 0.29, 0.45, false}, // +45 % but only 0.09 s: under the floor
		{floored, 0.2, 0.31, 0.55, true},
		{floored, 4, 4.9, 0.225, false},
		{floored, 4, 5.1, 0.275, true},
	} {
		if got := c.d.worsening(c.base, c.val); math.Abs(got-c.worse) > 1e-9 {
			t.Errorf("%s: worsening(%g→%g) = %g, want %g", c.d.name, c.base, c.val, got, c.worse)
		}
		if got := c.d.regressed(c.base, c.val); got != c.regressed {
			t.Errorf("%s: regressed(%g→%g) = %v, want %v", c.d.name, c.base, c.val, got, c.regressed)
		}
	}
}

// runs builds one side of a comparison: a record per value.
func runs(workload, metric string, vals ...float64) []record {
	var out []record
	for i, v := range vals {
		out = append(out, record{Workload: workload, Seed: int64(i), Result: result{
			Correct: true, Attempted: 10, Metrics: map[string]value{metric: {Value: v, Unit: "ms"}},
		}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	verdict := func(rows []row, metric string) string {
		for _, r := range rows {
			if r.metric == metric {
				return r.verdict
			}
		}
		return "missing"
	}
	tight := runs("w", "op_p50_ms", 100, 101, 99, 100, 102, 98)
	for _, c := range []struct {
		name   string
		change []record
		want   string
	}{
		{"same", runs("w", "op_p50_ms", 101, 100, 99, 100, 101, 99), verdictUnchanged},
		{"slower within bound", runs("w", "op_p50_ms", 118, 119, 117, 118, 120, 116), verdictUnchanged},
		{"slower beyond bound", runs("w", "op_p50_ms", 130, 131, 129, 130, 132, 128), verdictRegressed},
		{"too noisy to call", runs("w", "op_p50_ms", 60, 140, 100, 50, 150, 100), verdictUnresolved},
		{"noisy but every run better", runs("w", "op_p50_ms", 40, 80, 60, 30, 90, 50), verdictUnchanged},
	} {
		if got := verdict(compare(tight, c.change), "op_p50_ms"); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Direction: for a higher-is-better metric a drop regresses, a rise does not.
	base := runs("w", "ops_per_s", 10, 10.1, 9.9, 10)
	if got := verdict(compare(base, runs("w", "ops_per_s", 7, 7.1, 6.9, 7)), "ops_per_s"); got != verdictRegressed {
		t.Errorf("throughput drop: verdict %q, want regressed", got)
	}
	if got := verdict(compare(base, runs("w", "ops_per_s", 12, 12.1, 11.9, 12)), "ops_per_s"); got != verdictUnchanged {
		t.Errorf("throughput rise: verdict %q, want unchanged", got)
	}
	// failed_share may not increase at all, and an incorrect run counts as
	// wholly failed.
	failing := runs("w", "op_p50_ms", 100, 100, 100)
	for i := range failing {
		failing[i].Result.Failed = 1
	}
	if got := verdict(compare(tight, failing), "failed_share"); got != verdictRegressed {
		t.Errorf("failures appeared: verdict %q, want regressed", got)
	}
	if got := verdict(compare(tight, tight), "failed_share"); got != verdictUnchanged {
		t.Errorf("no failures on either side: verdict %q, want unchanged", got)
	}
	// Traced runs carry no end-to-end metrics and are ignored. A workload or
	// a metric that only one side has runs of — a crashed run leaves no record
	// — is a missing row, and missing rows or no rows at all fail the
	// comparison like a regression.
	traced := runs("w", "op_p50_ms", 500)
	traced[0].Trace = true
	for _, c := range []struct {
		name         string
		base, change []record
		missing      int // rows with the missing verdict
	}{
		{"the change lost the workload", tight, traced, 2}, // op_p50_ms and failed_share
		{"the change has one the base lacks", tight, append(runs("other", "op_p50_ms", 1), tight...), 2},
		{"the change lost a metric", append(runs("w", "ops_per_s", 10, 10), tight...), tight, 1},
		{"nothing on either side", nil, traced, 0},
	} {
		var buf bytes.Buffer
		rows := compare(c.base, c.change)
		missing := 0
		for _, r := range rows {
			if r.verdict == verdictMissing {
				missing++
			}
		}
		if missing != c.missing || !printRows(&buf, rows) {
			t.Errorf("%s: %d missing rows (want %d), comparison must fail:\n%s", c.name, missing, c.missing, buf.String())
		}
	}
	if printRows(io.Discard, compare(tight, tight)) {
		t.Errorf("a comparison of a set of runs with itself must pass")
	}
}

func TestRecordsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	want := runs("collect-wide", "op_p50_ms", 1.5, 2.5)
	for _, r := range want {
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, wrote %+v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 28},
		{ID: 6, Name: "leaf", Start: 200, End: 260},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 4, 3: 30, 4: 30, 5: 16, 6: 60} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Errorf("a nil tracer must record nothing")
	}
	tr = newTracer(time.Now())
	root := tr.begin("op", 0, 7)
	child := tr.begin("layer.Call", root, 7)
	tr.end(child)
	open := tr.begin("never closed", root, 7)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || open != 3 {
		t.Errorf("unexpected spans %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || !reflect.DeepEqual(doc.Spans, spans) {
		t.Errorf("spans file does not round-trip: %v", err)
	}
}

func TestGenerators(t *testing.T) {
	data, hist := uniformData(rand.New(rand.NewSource(5)), 2048, 16)
	again, _ := uniformData(rand.New(rand.NewSource(5)), 2048, 16)
	other, _ := uniformData(rand.New(rand.NewSource(6)), 2048, 16)
	if !reflect.DeepEqual(data, again) || reflect.DeepEqual(data, other) {
		t.Errorf("uniformData must be a function of the seed alone")
	}
	total := 0
	for cat, n := range hist {
		total += n
		count := 0
		for _, d := range data {
			if d == cat {
				count++
			}
		}
		if count != n {
			t.Errorf("category %d: histogram says %d, data has %d", cat, n, count)
		}
	}
	if total != 2048 {
		t.Errorf("histogram sums to %d, want 2048", total)
	}

	for _, sh := range []struct{ n, c, k int }{{64, 32, 5}, {32, 4, 2}, {67, 9, 4}} {
		for seed := int64(1); seed <= 20; seed++ {
			data, top, gap, err := plantedTopK(rand.New(rand.NewSource(seed)), sh.n, sh.c, sh.k)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, sh.c)
			for _, d := range data {
				counts[d]++
			}
			planted := map[int]bool{}
			minTop, maxRest := sh.n, 0
			for _, c := range top {
				planted[c] = true
				minTop = min(minTop, counts[c])
			}
			for c, n := range counts {
				if !planted[c] {
					maxRest = max(maxRest, n)
				}
			}
			if len(data) != sh.n || len(planted) != sh.k || minTop-maxRest != gap {
				t.Fatalf("shape %+v seed %d: %d devices, %d planted, gap %d but counts give %d",
					sh, seed, len(data), len(planted), gap, minTop-maxRest)
			}
			if need := topKMinEpsilon(sh.c, sh.k, gap, checkFailure); need > topKEps {
				t.Errorf("shape %+v: gap %d needs ε %g, the workload uses %g", sh, gap, need, topKEps)
			}
		}
	}
	if _, _, _, err := plantedTopK(rand.New(rand.NewSource(1)), 10, 4, 4); err == nil {
		t.Errorf("k = c leaves nothing to separate from: want an error")
	}
	// The bound arithmetic the README states.
	if got := topKMinEpsilon(32, 5, 11, 1e-9); math.Abs(got-4.66) > 0.01 {
		t.Errorf("topKMinEpsilon(32, 5, 11) = %g, want ≈ 4.66", got)
	}
	if got := laplaceBound(1, 1e-9); math.Abs(got-21.72) > 0.01 {
		t.Errorf("laplaceBound(1) = %g, want ≈ 21.72", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver and
// later PRs read, in step with the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	var e2e, layers []entry
	for _, d := range endToEnd {
		e2e = append(e2e, entry{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		layers = append(layers, entry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	if !reflect.DeepEqual(doc.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(doc.PerLayer, layers) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", doc.PerLayer, layers)
	}
}

// TestSmoke runs every workload once in smoke mode, traced, and checks the
// output the contract promises: every per-layer metric present, nothing
// failed, and the layer predictions that are exact (no MPC rounds without a
// committee mechanism, planner metrics only on plan-corpus). plan-corpus
// also runs untraced for the end-to-end family.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real key generation and VSR hand-offs")
	}
	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, name := range workloadNames {
		res, _, err := runOnce(name, 7, 0, true, spans, smokeSizes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != smokeSizes.smokeOps {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range perLayer {
			v, ok := res.Metrics[d.name]
			if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", name, d.name, v, ok)
			}
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
		get := func(m string) float64 { return res.Metrics[m].Value }
		switch name {
		case "plan-corpus":
			if get("planner.ms_per_plan") <= 0 || get("planner.prefixes_per_plan") <= 0 || get("runtime.run_ms") != 0 {
				t.Errorf("plan-corpus: planner metrics must be positive and runtime ones zero: %v", res.Metrics)
			}
		case "collect-wide":
			if get("mpc.rounds_per_op") != 0 || get("runtime.zkps_verified_per_op") != float64(smokeSizes.wideN) {
				t.Errorf("collect-wide: %g MPC rounds, %g proofs verified", get("mpc.rounds_per_op"), get("runtime.zkps_verified_per_op"))
			}
		case "committee-deep":
			if get("mpc.rounds_per_op") <= 0 || get("runtime.vsr_transfers_per_op") <= 0 || get("runtime.attributed_cpu_share") <= 0 {
				t.Errorf("committee-deep: rounds %g transfers %g attributed share %g",
					get("mpc.rounds_per_op"), get("runtime.vsr_transfers_per_op"), get("runtime.attributed_cpu_share"))
			}
		case "gateway-closed":
			if get("service.admit_ms_p50") <= 0 || get("service.execute_ms_p50") <= 0 || get("wal.append_us") <= 0 || get("mpc.rounds_per_op") != 0 {
				t.Errorf("gateway-closed: service metrics missing: %v", res.Metrics)
			}
		}
		if name != "plan-corpus" && get("planner.ms_per_plan") != 0 {
			t.Errorf("%s: planner.ms_per_plan = %g off plan-corpus", name, get("planner.ms_per_plan"))
		}
	}
	if data, err := os.ReadFile(spans); err != nil || !json.Valid(data) {
		t.Errorf("spans file: %v", err)
	}
	if left, _ := filepath.Glob(tmpPattern + "*"); len(left) != 0 {
		t.Errorf("the gateway workload left %v behind", left)
	}

	res, _, err := runOnce("plan-corpus", 7, 0, false, "", smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || !(v.Value > 0) {
			t.Errorf("plan-corpus: end-to-end metric %s = %+v", d.name, v)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced run carries %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	if _, err := newWorkload("no-such-workload", 1, smokeSizes); err == nil {
		t.Errorf("an unknown workload must be refused")
	}
}

// TestGoldenGate: a plan costlier than golden fails its operation, a cheaper
// one only leaves a note.
func TestGoldenGate(t *testing.T) {
	w, err := newPlanCorpus(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.golden) != len(w.reqs) {
		t.Fatalf("golden has %d entries for %d corpus plans; run -update-golden", len(w.golden), len(w.reqs))
	}
	if err := w.setup(opCtx{}); err != nil {
		t.Fatal(err)
	}
	key := planKey(w.reqs[0])
	honest := w.golden[key]
	w.golden[key] = honest / 2 // pretend head used to plan this twice as cheaply
	if err := w.op(opCtx{}); err == nil {
		t.Errorf("a plan costlier than golden must fail the operation")
	}
	w.golden[key] = honest * 2
	if err := w.op(opCtx{}); err != nil || w.notes[key] == "" {
		t.Errorf("a plan cheaper than golden must pass with a note: err %v, note %q", err, w.notes[key])
	}
	delete(w.golden, key)
	if err := w.op(opCtx{}); err == nil {
		t.Errorf("a plan with no golden entry must fail the operation")
	}
}

func TestSpeedometer(t *testing.T) {
	var s speedometer
	start := time.Now()
	if got := s.factor(start, time.Now()); got != 1 {
		t.Errorf("no samples: factor %g, want 1", got)
	}
	s.catchUp() // the first call always samples once
	s.catchUp() // nothing is due right after a sample
	if len(s.samples) != 1 {
		t.Fatalf("%d samples, want 1", len(s.samples))
	}
	// A sample is the CPU time its own thread was charged, so it cannot
	// exceed the wall time it took, and the cost is kept for the harness to
	// take out of the timed section.
	if wall, cpu := s.spent(); cpu <= 0 || cpu > wall || s.samples[0].secs != cpu.Seconds() {
		t.Errorf("one sample: spent wall %v, cpu %v, sample %g s", wall, cpu, s.samples[0].secs)
	}
	// Hand-made samples: a phase that ran the kernel in twice the reference
	// time reads a factor of one half, and a window selects its own samples.
	mid := start.Add(time.Hour)
	s.samples = []kernelSample{
		{at: start, secs: refKernelCPU.Seconds()},
		{at: mid, secs: 2 * refKernelCPU.Seconds()},
		{at: mid.Add(time.Second), secs: 2 * refKernelCPU.Seconds()},
	}
	if got := s.factor(start, start.Add(time.Minute)); math.Abs(got-1) > 1e-12 {
		t.Errorf("undisturbed phase: factor %g, want 1", got)
	}
	if got := s.factor(mid, mid.Add(time.Minute)); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("slow phase: factor %g, want 0.5", got)
	}
	// A stale speedometer catches up, but by a bounded number of samples.
	s.catchUp()
	if added := len(s.samples) - 3; added != 0 {
		// the last hand-made sample lies in the future, so nothing is due
		t.Errorf("caught up by %d samples, want 0", added)
	}
	s.samples[2].at = time.Now().Add(-time.Hour)
	s.catchUp()
	if added := len(s.samples) - 3; added != 8 {
		t.Errorf("caught up by %d samples after an hour, want the cap of 8", added)
	}

	// Scaling: every time goes by its phase's factor; allocation is left
	// alone.
	rs := &runStats{
		ops:  []opSample{{id: 1, ms: 100}, {id: 2, ms: 300}, {id: 3, ms: 400}},
		wall: 4 * time.Second, cpu: 6 * time.Second, alloc: 9e6,
		setupS: 10, setupSpeed: 0.5, opSpeed: 0.8,
	}
	raw, scaled := endToEndMetrics(rs, false), endToEndMetrics(rs, true)
	want := map[string][2]float64{
		"setup_s": {10, 5}, "op_p50_ms": {300, 240}, "ops_per_s": {0.75, 0.9375},
		"cpu_s_per_op": {2, 1.6}, "alloc_mb_per_op": {3, 3},
	}
	for name, w := range want {
		if math.Abs(raw[name]-w[0]) > 1e-9 || math.Abs(scaled[name]-w[1]) > 1e-9 {
			t.Errorf("%s: raw %g scaled %g, want %g and %g", name, raw[name], scaled[name], w[0], w[1])
		}
	}
}

// sleepWL is a workload whose operations only sleep, each client for a
// different time so that the clients drift apart.
type sleepWL struct{ nClient int }

func (w *sleepWL) setup(opCtx) error { return nil }
func (w *sleepWL) teardown() error   { return nil }
func (w *sleepWL) clients() int      { return w.nClient }
func (w *sleepWL) verify() error     { return nil }
func (w *sleepWL) op(c opCtx) error {
	time.Sleep(kernelGap/2 + time.Duration(c.client)*kernelGap/4)
	return nil
}
func (w *sleepWL) layers(*tracer, *runStats, map[string]float64) error { return nil }

// TestSamplingWaitsForOperations: the harness samples the reference kernel
// on both sides of the timed section and, inside it, never while an
// operation is in flight.
func TestSamplingWaitsForOperations(t *testing.T) {
	for _, clients := range []int{1, 2} {
		rs, err := runWorkload(&sleepWL{nClient: clients}, nil, 1, func(started int, _ time.Duration) bool { return started >= 3*clients })
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.ops) != 3*clients || rs.failed() != 0 {
			t.Fatalf("%d clients: %d operations, %d failed", clients, len(rs.ops), rs.failed())
		}
		// Two samples precede the set-up; every operation but a client's last
		// is followed by at least one (the last by the closing bracket).
		if inSection := len(rs.speed.samples) - 2 - 2*bracketSamples; inSection < 1 {
			t.Errorf("%d clients: no sample between operations that take %v or more each", clients, kernelGap/2)
		}
		for _, k := range rs.speed.samples {
			for _, o := range rs.ops {
				if k.at.After(o.begin) && k.at.Before(o.end) {
					t.Errorf("%d clients: a kernel sample ended at %v, inside operation %d (%v to %v)", clients, k.at, o.id, o.begin, o.end)
				}
			}
		}
		// Sampling may hold a client back for the rest of another's operation,
		// never for a whole one: two clients' operations overlap.
		if busy := time.Duration(median(rs.latencies(nil)) * float64(len(rs.ops)) * 1e6); clients == 2 && rs.wall > busy*8/10 {
			t.Errorf("two clients took %v for operations that add up to %v: they ran one at a time", rs.wall, busy)
		}
		if rs.opSpeed <= 0 || rs.setupSpeed <= 0 {
			t.Errorf("%d clients: factors %g and %g", clients, rs.setupSpeed, rs.opSpeed)
		}
	}
}
