// Command bench is the repository's benchmark: four workloads — plan-corpus,
// collect-wide, committee-deep, gateway-closed — driven through the public
// functions of internal/planner, internal/runtime and internal/service, with
// every output checked against a reference the benchmark computes itself.
// BENCHMARK.json at the repository root describes it; README.md in this
// directory explains the metrics, the workloads and how to read a trace.
//
//	go run -C bench . -workload collect-wide -seed 1 -seconds 20 -trace 0
//	go run -C bench . -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart is read as early as a Go program can; set-up time runs from
// here.
var processStart = time.Now()

// workloadNames in the order BENCHMARK.json lists them.
var workloadNames = []string{"plan-corpus", "collect-wide", "committee-deep", "gateway-closed"}

// sizes are the shapes a run uses; smoke mode swaps in tiny ones with the
// same checks and the same output.
type sizes struct {
	wideN, wideC    int
	deepN, deepC, k int
	setups          int // set-ups per run; set-up time is their median
	replay          int // scale of every replay loop
	smokeOps        int // operations per run in smoke mode (0 = run for -seconds)
}

// gatewayMaxClients caps gateway-closed's closed-loop clients (and the
// gateway's executor slots) at min(nproc, 2).
const gatewayMaxClients = 2

var (
	fullSizes  = sizes{wideN: 2048, wideC: 16, deepN: 64, deepC: 32, k: 5, setups: 3, replay: 4}
	smokeSizes = sizes{wideN: 32, wideC: 4, deepN: 32, deepC: 4, k: 2, setups: 1, replay: 1, smokeOps: 2}
)

func newWorkload(name string, seed int64, sz sizes) (workload, error) {
	switch name {
	case "plan-corpus":
		return newPlanCorpus(seed, sz.replay)
	case "collect-wide":
		return newCollectWide(seed, sz.wideN, sz.wideC, sz.replay), nil
	case "committee-deep":
		return newCommitteeDeep(seed, sz.deepN, sz.deepC, sz.k, sz.replay)
	case "gateway-closed":
		return newGatewayClosed(seed, min(runtime.NumCPU(), gatewayMaxClients), sz.replay), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// asMeasured is what a run's scaled end-to-end metrics were before scaling:
// the raw values and the machine-speed factors of the set-up phase and the
// timed section.
type asMeasured struct {
	SetupSpeed float64            `json:"setup_speed_factor"`
	OpSpeed    float64            `json:"op_speed_factor"`
	Raw        map[string]float64 `json:"raw"`
}

// runOnce runs one workload and returns its result; traced selects which
// metric family it carries. spansOut, if set, receives the spans.
func runOnce(name string, seed int64, seconds float64, traced bool, spansOut string, sz sizes) (result, asMeasured, error) {
	var raw asMeasured
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return result{}, raw, err
	}
	var tr *tracer
	if traced {
		tr = newTracer(processStart)
	}
	budget := time.Duration(seconds * float64(time.Second))
	stop := func(started int, elapsed time.Duration) bool {
		if sz.smokeOps > 0 {
			return started >= sz.smokeOps
		}
		// Every client completes at least one operation however short the
		// budget.
		return started >= w.clients() && elapsed >= budget
	}
	rs, err := runWorkload(w, tr, sz.setups, stop)
	if err != nil {
		return result{}, raw, errors.Join(err, w.teardown())
	}
	for _, o := range rs.ops {
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s operation %d failed: %v\n", name, o.id, o.err)
		}
	}
	res := result{Correct: true, Attempted: len(rs.ops), Failed: rs.failed(), Metrics: map[string]value{}}
	if err := w.verify(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: end-of-run check failed: %v\n", name, err)
		res.Correct = false
	}
	if traced {
		m := map[string]float64{}
		benchLayerMetrics(tr, rs, m)
		if err := w.layers(tr, rs, m); err != nil {
			return result{}, raw, errors.Join(fmt.Errorf("per-layer metrics: %w", err), w.teardown())
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = value{Value: m[d.name], Unit: d.unit}
		}
	} else {
		raw = asMeasured{SetupSpeed: rs.setupSpeed, OpSpeed: rs.opSpeed, Raw: endToEndMetrics(rs, false)}
		m := endToEndMetrics(rs, true)
		for _, d := range endToEnd {
			res.Metrics[d.name] = value{Value: m[d.name], Unit: d.unit}
		}
	}
	if err := w.teardown(); err != nil {
		return result{}, raw, err
	}
	if spansOut != "" {
		if err := writeSpans(spansOut, tr.snapshot()); err != nil {
			return result{}, raw, err
		}
	}
	return res, raw, nil
}

// printResult prints every metric by name with its unit (and, for the scaled
// end-to-end times, the value as measured), then the result object as the
// last line.
func printResult(name string, seed int64, res result, raw asMeasured) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d: %d attempted, %d failed, correct=%v\n", name, seed, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6f %s", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		if v, ok := raw.Raw[n]; ok && v != res.Metrics[n].Value {
			fmt.Printf("   (%.6f as measured)", v)
		}
		fmt.Println()
	}
	if raw.Raw != nil {
		fmt.Printf("  machine-speed factors: set-up %.4f, timed section %.4f\n", raw.SetupSpeed, raw.OpSpeed)
	}
	if share, ok := res.Metrics["runtime.attributed_cpu_share"]; ok && share.Value > 0 {
		fmt.Printf("  reconciliation: the replayed layers explain %.1f%% of the measured CPU per operation; %.3f s is unexplained (time in internal/runtime itself, GC, scheduling)\n",
			100*share.Value, res.Metrics["runtime.unexplained_cpu_s"].Value)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	var (
		name       = flag.String("workload", "", "workload to run: plan-corpus, collect-wide, committee-deep or gateway-closed")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", 20, "how long the timed section runs")
		trace      = flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a file name: traced run that also writes its spans there")
		smoke      = flag.Bool("smoke", false, "tiny shapes and two operations per workload: same checks, same output")
		out        = flag.String("out", "", "also append the result to this file, one JSON record per line (the input of -compare)")
		doCompare  = flag.Bool("compare", false, "compare two -out files: bench -compare BASE CHANGE; exits 1 on a regression or when a side lacks runs the other has")
		goldenFlag = flag.Bool("update-golden", false, "rewrite testdata/plans.golden.json (run from the benchmark's directory; benchmark PRs only)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *goldenFlag:
		err = updateGolden()
	case *doCompare:
		var failed bool
		if failed, err = compareFiles(flag.Args()); failed {
			os.Exit(1)
		}
	default:
		err = runAndReport(*name, *seed, *seconds, *trace, *smoke, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}

func compareFiles(args []string) (failed bool, err error) {
	if len(args) != 2 {
		return false, fmt.Errorf("-compare takes two files: BASE CHANGE")
	}
	base, err := readRecords(args[0])
	if err != nil {
		return false, err
	}
	change, err := readRecords(args[1])
	if err != nil {
		return false, err
	}
	return printRows(os.Stdout, compare(base, change)), nil
}

func runAndReport(name string, seed int64, seconds float64, trace string, smoke bool, out string) error {
	traced, spansOut := trace != "0", ""
	if traced && trace != "1" {
		spansOut = trace
	}
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	res, raw, err := runOnce(name, seed, seconds, traced, spansOut, sz)
	if err != nil {
		return err
	}
	if out != "" {
		if err := appendRecord(out, record{Workload: name, Seed: seed, Trace: traced, Result: res, AsMeasured: raw}); err != nil {
			return err
		}
	}
	return printResult(name, seed, res, raw)
}
