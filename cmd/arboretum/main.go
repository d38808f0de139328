// Command arboretum plans and executes federated-analytics queries.
//
// Usage:
//
//	arboretum plan  -query top1 [-n 1073741824] [-goal device-expected-cpu]
//	arboretum plan  -query median -limit-max-sent-user 1000 -limit-agg-core-hours 1000
//	arboretum plan  -file my_query.txt -categories 1024
//	arboretum run   -query top1 [-devices 128] [-committee 5] [-workers 4]
//	arboretum list
//
// `plan` prints the chosen plan (vignettes, committees, six-metric cost) for
// a deployment of -n participants; the -limit-* flags bound what the plan may
// cost each entity (unset limits default to the paper's evaluation setup).
// `run` plans the query for a small simulated deployment and executes that
// plan end to end with real cryptography; its -workers bounds the runtime's
// worker pool (default: GOMAXPROCS), and query outputs are identical at every
// worker count. `list` shows the built-in evaluation queries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"arboretum"
	"arboretum/internal/eval"
	"arboretum/internal/queries"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "plan":
		if err := planCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "arboretum:", err)
			os.Exit(1)
		}
	case "run":
		if err := runCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "arboretum:", err)
			os.Exit(1)
		}
	case "explain":
		if err := explainCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "arboretum:", err)
			os.Exit(1)
		}
	case "list":
		listCmd()
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  arboretum plan    -query <name> | -file <path> [-n N] [-categories C] [-goal G]
                    [-ring paper|test]
                    [-limit-avg-sent-user MB] [-limit-avg-comp-user s]
                    [-limit-max-sent-user MB] [-limit-max-comp-user s]
                    [-limit-agg-core-hours h] [-limit-agg-sent GB]
  arboretum run     -query <name> | -file <path> [-devices D] [-committee M] [-seed S] [-workers W]
                    [-faults "seed=7,upload=0.1,dropout=0.005"]
                    [-ingest-shards S] [-ingest-batch B]
  arboretum explain -query <name> | -file <path> [-n N] -dim sum|em|noise|compute
  arboretum list`)
}

// loadQuery resolves -query/-file/-categories into source text + width.
func loadQuery(name, file string, categories int64) (string, string, int64, error) {
	if name != "" {
		q, err := queries.ByName(name)
		if err != nil {
			return "", "", 0, err
		}
		c := q.Categories
		if categories > 0 {
			c = categories
		}
		return q.Name, q.Source, c, nil
	}
	if file == "" {
		return "", "", 0, fmt.Errorf("need -query or -file")
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", "", 0, err
	}
	if categories <= 0 {
		categories = 1
	}
	return file, string(data), categories, nil
}

func planCmd(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	name := fs.String("query", "", "built-in query name (see `arboretum list`)")
	file := fs.String("file", "", "query source file")
	n := fs.Int64("n", 1<<30, "number of participants")
	categories := fs.Int64("categories", 0, "one-hot categories (default: the query's)")
	goal := fs.String("goal", string(arboretum.MinimizeExpectedDeviceCPU), "optimization goal")
	verbose := fs.Bool("v", false, "show per-vignette member costs")
	asJSON := fs.Bool("json", false, "emit the plan result as JSON")
	ring := fs.String("ring", "", "measure FHE costs natively on a named BGV ring (\"paper\" = 2^15/135-bit RNS, \"test\"); default: reference model")
	limAvgSent := fs.Float64("limit-avg-sent-user", -1, "max expected MB sent per user device")
	limAvgComp := fs.Float64("limit-avg-comp-user", -1, "max expected compute seconds per user device")
	limMaxSent := fs.Float64("limit-max-sent-user", -1, "max MB sent by any user device")
	limMaxComp := fs.Float64("limit-max-comp-user", -1, "max compute seconds for any user device")
	limAggHours := fs.Float64("limit-agg-core-hours", -1, "max aggregator core-hours")
	limAggSent := fs.Float64("limit-agg-sent", -1, "max GB sent by the aggregator")
	if err := fs.Parse(args); err != nil {
		return err
	}
	label, src, c, err := loadQuery(*name, *file, *categories)
	if err != nil {
		return err
	}
	// Unset limits keep the paper's evaluation defaults; a set flag overrides
	// its one metric (0 = unlimited).
	limits := arboretum.DefaultLimits()
	if *limAvgSent >= 0 {
		limits.DeviceExpectedBytes = *limAvgSent * 1e6
	}
	if *limAvgComp >= 0 {
		limits.DeviceExpectedCPU = *limAvgComp
	}
	if *limMaxSent >= 0 {
		limits.DeviceMaxBytes = *limMaxSent * 1e6
	}
	if *limMaxComp >= 0 {
		limits.DeviceMaxCPU = *limMaxComp
	}
	if *limAggHours >= 0 {
		limits.AggregatorCoreHours = *limAggHours
	}
	if *limAggSent >= 0 {
		limits.AggregatorBytes = *limAggSent * 1e9
	}
	res, err := arboretum.Plan(arboretum.PlanRequest{
		Name: label, Source: src, N: *n, Categories: c,
		Goal: arboretum.Goal(*goal), Limits: limits,
		Ring: *ring,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if *verbose {
		fmt.Print(res.Detail)
	} else {
		fmt.Print(res.Summary)
	}
	fmt.Printf("privacy: (ε=%.4g, δ=%.3g)-differential privacy\n", res.Epsilon, res.Delta)
	fmt.Printf("planner: %v, %d plan prefixes considered\n", res.PlanningTime, res.PrefixesExplored)
	fmt.Printf("choices: %v\n", res.Choices)
	return nil
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("query", "", "built-in query name")
	file := fs.String("file", "", "query source file")
	devices := fs.Int("devices", 128, "simulated devices")
	categories := fs.Int64("categories", 8, "categories for the simulated data")
	committee := fs.Int("committee", 5, "committee size")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "worker pool size for per-device work (0 = GOMAXPROCS)")
	faultSpec := fs.String("faults", "", `fault schedule, e.g. "seed=7,upload=0.1,dropout=0.005,shard@1" (see docs/FAULTS.md)`)
	shards := fs.Int("ingest-shards", 0, "ingest shard count (0 = default 8; docs/INGEST.md)")
	batch := fs.Int("ingest-batch", 0, "ingest batch size (0 = default 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, src, c, err := loadQuery(*name, *file, *categories)
	if err != nil {
		return err
	}
	if c > 32 {
		c = 32 // keep the simulated run snappy
	}
	d, err := arboretum.NewDeployment(arboretum.DeploymentConfig{
		Devices: *devices, Categories: int(c), CommitteeSize: *committee,
		Seed: *seed, BudgetEpsilon: 1000, Workers: *workers,
		Faults:       *faultSpec,
		IngestShards: *shards, IngestBatch: *batch,
	})
	if err != nil {
		return err
	}
	res, err := d.Run(src)
	if *faultSpec != "" {
		// The replay report is printed even when the run fails closed: the
		// schedule, fired-fault log, and recovery summary are the point of a
		// -faults run, and they are deterministic for a given -seed/-faults
		// pair, so two invocations print byte-identical reports.
		fmt.Print(d.FaultReport())
	}
	if err != nil {
		return err
	}
	fmt.Printf("accepted inputs: %d\n", res.AcceptedInputs)
	fmt.Printf("charged ε: %.4g\n", res.Epsilon)
	fmt.Printf("choices: %v\n", res.Choices)
	for i, o := range res.Outputs {
		fmt.Printf("output[%d] = %g\n", i, o)
	}
	return nil
}

func listCmd() {
	fmt.Printf("%-10s %-28s %6s %6s\n", "name", "action", "C", "lines")
	for _, q := range arboretum.EvaluationQueries() {
		fmt.Printf("%-10s %-28s %6d %6d\n", q.Name, q.Action, q.Categories, q.Lines)
	}
}

// explainCmd prices the alternatives the planner rejected for one operator:
// it re-plans with each implementation family pinned and prints the cost
// deltas, so an analyst can see why the winner won.
func explainCmd(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	name := fs.String("query", "", "built-in query name")
	file := fs.String("file", "", "query source file")
	n := fs.Int64("n", 1<<30, "number of participants")
	categories := fs.Int64("categories", 0, "one-hot categories")
	dim := fs.String("dim", "sum", "operator to explain: sum, em, noise, compute")
	if err := fs.Parse(args); err != nil {
		return err
	}
	label, src, c, err := loadQuery(*name, *file, *categories)
	if err != nil {
		return err
	}
	rows, err := eval.PinChoices(queries.Query{Name: label, Source: src, Categories: c}, *n, *dim)
	if err != nil {
		return err
	}
	free, err := arboretum.Plan(arboretum.PlanRequest{
		Name: label, Source: src, N: *n, Categories: c,
		Limits: arboretum.DefaultLimits(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("planner's choice for %s: %s\n\n", *dim, free.Choices[*dim])
	fmt.Printf("%-24s %10s %9s %8s %9s %8s\n", "pinned", "agg h", "exp s", "exp MB", "max s", "max GB")
	for _, r := range rows {
		if !r.Feasible {
			fmt.Printf("%-24s infeasible (%v)\n", r.Choice, r.Err)
			continue
		}
		fmt.Printf("%-24s %10.0f %9.1f %8.2f %9.0f %8.2f\n",
			r.Choice, r.AggCoreHours, r.ExpCPU, r.ExpMB, r.MaxCPU, r.MaxGB)
	}
	return nil
}
