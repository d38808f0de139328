package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one run as -out appends it: the contract's result object plus
// what identifies the run.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
	// AsMeasured keeps an untraced run's unscaled times beside the reported
	// ones; -compare does not read it.
	AsMeasured asMeasured `json:"as_measured"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err == nil {
		_, err = f.Write(append(data, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// The comparator's verdicts. A metric whose run-to-run spread is wider than
// its bound cannot be called unchanged: it is unresolved, unless every run
// of the change reads better than every run of the base.
const (
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	// verdictMissing: one side has runs of this workload × metric and the
	// other has none — a run that crashed left no record. It fails the
	// comparison like a regression: no data is not "no change".
	verdictMissing = "missing"
)

// row is one workload × metric comparison.
type row struct {
	workload, metric, unit string
	base, change           float64 // medians
	worsening              float64 // share of base, positive is worse
	spread                 float64 // the wider of the two sides' IQR ÷ median
	bound                  float64
	verdict                string
}

// judge compares the change's values of one metric with the base's.
func judge(d metricDef, base, change []float64) row {
	r := row{
		metric: d.name, unit: d.unit, bound: d.bound,
		base: median(base), change: median(change),
		spread: max(spread(base), spread(change)),
	}
	r.worsening = d.worsening(r.base, r.change)
	switch {
	case d.regressed(r.base, r.change):
		r.verdict = verdictRegressed
	case r.spread > d.bound && !allBetter(d, base, change):
		r.verdict = verdictUnresolved
	default:
		r.verdict = verdictUnchanged
	}
	return r
}

// allBetter reports whether every run of the change reads better than
// every run of the base.
func allBetter(d metricDef, base, change []float64) bool {
	for _, c := range change {
		for _, b := range base {
			if d.worsening(b, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// failedShare is the comparator's own metric: failed or incorrect operations
// ÷ attempted, which may not increase at all.
var failedShare = metricDef{name: "failed_share", unit: "share", better: "lower"}

// compare judges every workload × end-to-end metric either side has runs of;
// one that the other side lacks gets a missing row.
func compare(base, change []record) []row {
	type side map[string]map[string][]float64 // workload → metric → values
	collect := func(recs []record) side {
		s := side{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if s[r.Workload] == nil {
				s[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Result.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], v.Value)
			}
			fs := 1.0
			if r.Result.Attempted > 0 && r.Result.Correct {
				fs = float64(r.Result.Failed) / float64(r.Result.Attempted)
			}
			s[r.Workload][failedShare.name] = append(s[r.Workload][failedShare.name], fs)
		}
		return s
	}
	a, b := collect(base), collect(change)
	var workloads []string
	for w := range a {
		workloads = append(workloads, w)
	}
	for w := range b {
		if a[w] == nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []row
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), failedShare) {
			var r row
			switch {
			case len(a[w][d.name]) == 0 && len(b[w][d.name]) == 0:
				continue
			case len(a[w][d.name]) == 0 || len(b[w][d.name]) == 0:
				r = row{metric: d.name, unit: d.unit, bound: d.bound, verdict: verdictMissing,
					base: median(a[w][d.name]), change: median(b[w][d.name])}
			default:
				r = judge(d, a[w][d.name], b[w][d.name])
				if d.name == failedShare.name && r.change > r.base {
					r.verdict = verdictRegressed
				}
			}
			r.workload = w
			rows = append(rows, r)
		}
	}
	return rows
}

// printRows writes one line per row, every ratio with its base, and reports
// whether the comparison failed: a row regressed or is missing, or there is
// no row at all.
func printRows(w io.Writer, rows []row) (failed bool) {
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "base(median)", "change(median)", "worse by", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+8.1f%% %7.1f%% %6.0f%%  %s\n",
			r.workload, r.metric+" ["+r.unit+"]", r.base, r.change,
			100*r.worsening, 100*r.spread, 100*r.bound, r.verdict)
		failed = failed || r.verdict == verdictRegressed || r.verdict == verdictMissing
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "no untraced runs on either side: nothing was compared")
	}
	return failed || len(rows) == 0
}
