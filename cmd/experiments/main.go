// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 7).
//
// Usage:
//
//	experiments                 # run everything
//	experiments -exp fig6       # one experiment (-h lists the names)
//	experiments -out data/      # also write CSV data files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"arboretum/internal/eval"
)

// experiment is one section of the output: the -exp names that select it
// (the first canonical, the rest aliases), its title, and what prints it.
type experiment struct {
	names []string
	title string
	run   func(outDir string) (string, error)
}

// queryCosts plans the ten queries once for Figures 6-8 and §7.2.
var queryCosts = sync.OnceValues(eval.QueryCosts)

// experiments lists every -exp name in the order a full run prints them; an
// entry without a name prints only in a full run.
var experiments = []experiment{
	{[]string{"table1"}, "Table 1: approaches at 10^8 participants (zip-code query)", show(eval.Table1, eval.RenderTable1)},
	{[]string{"table2"}, "Table 2: supported queries", show(func() ([]eval.Table2Row, error) { return eval.Table2(), nil }, eval.RenderTable2)},
	{[]string{"fig6"}, "Figure 6", showCSV(queryCosts, eval.RenderFigure6, "query_costs.csv", eval.CSVQueryCosts)},
	{[]string{"fig7"}, "Figure 7", showCSV(queryCosts, eval.RenderFigure7, "query_costs.csv", eval.CSVQueryCosts)},
	{[]string{"fig8"}, "Figure 8", showCSV(queryCosts, eval.RenderFigure8, "query_costs.csv", eval.CSVQueryCosts)},
	{nil, "Section 7.2: committee structure", show(queryCosts, committeeStructure)},
	{[]string{"fig9"}, "Figure 9: planner runtime", showCSV(eval.Figure9, eval.RenderFigure9, "figure9.csv", eval.CSVFigure9)},
	{[]string{"ablation"}, "Section 7.3: branch-and-bound ablation", show(func() ([]eval.AblationRun, error) { return eval.Ablation(2_000_000) }, eval.RenderAblation)},
	{[]string{"fig10"}, "Figure 10: scalability", showCSV(eval.Figure10, eval.RenderFigure10, "figure10.csv", eval.CSVFigure10)},
	{[]string{"fig11"}, "Figure 11: power", showCSV(eval.Figure11, eval.RenderFigure11, "figure11.csv", eval.CSVFigure11)},
	{[]string{"hetero", "geo"}, "Section 7.5: heterogeneity", show(eval.Heterogeneity, eval.RenderHeterogeneity)},
	{[]string{"design"}, "Design-choice ablations", show(eval.DesignAblations, eval.RenderDesignAblations)},
	{[]string{"accuracy"}, "Utility vs ε (end-to-end)", show(func() ([]eval.AccuracyRow, error) { return eval.Accuracy(10) }, eval.RenderAccuracy)},
	{[]string{"validate"}, "Cost-model validation (Appendix C analogue)", show(eval.Validate, eval.RenderValidation)},
}

func main() {
	var names []string
	for _, e := range experiments {
		if len(e.names) > 0 {
			names = append(names, strings.Join(e.names, "/"))
		}
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", ")+", or all")
	out := flag.String("out", "", "also write CSV data files into this directory")
	flag.Parse()
	if err := run(*exp, *out); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// show renders what gen returns.
func show[T any](gen func() (T, error), render func(T) string) func(string) (string, error) {
	return showCSV(gen, render, "", nil)
}

// showCSV is show that also writes the rows to outDir/name when -out is set.
func showCSV[T any](gen func() (T, error), render func(T) string, name string, toCSV func(T) (string, error)) func(string) (string, error) {
	return func(outDir string) (string, error) {
		rows, err := gen()
		if err != nil {
			return "", err
		}
		if outDir == "" || toCSV == nil {
			return render(rows), nil
		}
		data, err := toCSV(rows)
		if err == nil {
			err = saveCSV(outDir, name, data)
		}
		return render(rows), err
	}
}

func saveCSV(dir, name, data string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644)
}

// committeeStructure prints §7.2's committee counts from Figures 6-8's plans.
func committeeStructure(rows []eval.QueryCost) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s committees=%-8d size=%-4d serving %.5f%% of participants\n",
			r.Query, r.CommitteeCount, r.CommitteeSize, 100*r.ServingFrac)
	}
	return sb.String()
}

func run(exp, outDir string) error {
	var selected []experiment
	for _, e := range experiments {
		if exp == "all" || slices.Contains(e.names, exp) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	for _, e := range selected {
		body, err := e.run(outDir)
		fmt.Printf("\n=== %s ===\n%s", e.title, body)
		if err != nil {
			return err
		}
	}
	return nil
}
