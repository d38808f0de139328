package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"arboretum/internal/costmodel"
	"arboretum/internal/planner"
	"arboretum/internal/queries"
	"arboretum/internal/runtime"
)

// planN is the population every corpus plan is made for (the paper's
// Figure 9 setting).
const planN = 1 << 30

// planGoals are the six optimization goals of the paper's Section 4.2.
var planGoals = []costmodel.Metric{
	costmodel.AggCPU, costmodel.AggBytes,
	costmodel.PartExpCPU, costmodel.PartExpBytes,
	costmodel.PartMaxCPU, costmodel.PartMaxBytes,
}

// goldenPath is where -update-golden writes, relative to the benchmark's
// directory; the committed copy is compiled in.
const goldenPath = "testdata/plans.golden.json"

//go:embed testdata/plans.golden.json
var goldenJSON []byte

// goldenSlack absorbs float formatting: a plan is costlier than golden only
// beyond it.
const goldenSlack = 1e-9

// planRef is what the sequential set-up pass recorded for one request.
type planRef struct {
	text string // the plan, rendered
	cost costmodel.Vector
}

// planWL is plan-corpus: one operation plans the ten Table-2 queries for
// each of the six goals. The planner does all the work; runtime, crypto and
// service do none.
type planWL struct {
	reqs   []planner.Request // seed-shuffled order
	golden map[string]float64
	replay int

	ref      map[string]planRef
	notes    map[string]string // plans cheaper than golden, reported once
	seqStats struct {          // the Workers: 1 pass, where counts repeat exactly
		prefixes int64
		allocKB  float64
	}
}

func planKey(r planner.Request) string { return r.Name + "/" + r.Goal.String() }

func corpusRequests() []planner.Request {
	var reqs []planner.Request
	for _, q := range queries.All {
		for _, g := range planGoals {
			reqs = append(reqs, planner.Request{
				Name: q.Name, Source: q.Source, N: planN, Categories: q.Categories,
				ElemRange: q.ElemRange, Goal: g, Limits: planner.DefaultLimits,
			})
		}
	}
	return reqs
}

// newPlanCorpus orders the corpus by the seed: the requests are fixed by
// the paper, the seed decides only the order they are planned in.
func newPlanCorpus(seed int64, replay int) (*planWL, error) {
	reqs := corpusRequests()
	rand.New(rand.NewSource(seed)).Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	w := &planWL{reqs: reqs, replay: replay, notes: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, &w.golden); err != nil {
		return nil, fmt.Errorf("plan-corpus: %s: %w", goldenPath, err)
	}
	return w, nil
}

func (w *planWL) clients() int    { return 1 }
func (w *planWL) teardown() error { return nil }

// setup plans the corpus once sequentially — the reference every timed plan
// must equal, and the pass whose prefix and allocation counts repeat exactly
// — then once at the default parallelism as the warm-up operation.
func (w *planWL) setup(c opCtx) error {
	w.ref = make(map[string]planRef, len(w.reqs))
	alloc0 := totalAlloc()
	w.seqStats.prefixes = 0
	for _, r := range w.reqs {
		r.Workers = 1
		done := c.span("planner.Plan/sequential")
		res, err := planner.Plan(r)
		done()
		if err != nil {
			return fmt.Errorf("sequential plan %s: %w", planKey(r), err)
		}
		w.ref[planKey(r)] = planRef{text: res.Plan.String(), cost: res.Plan.Cost}
		w.seqStats.prefixes += res.Stats.PrefixesExplored
	}
	w.seqStats.allocKB = float64(totalAlloc()-alloc0) / 1e3
	if err := w.op(c); err != nil {
		return fmt.Errorf("warm-up operation: %w", err)
	}
	return nil
}

// verify prints the plans that came out cheaper than golden; that is
// worth a look, not a failure.
func (w *planWL) verify() error {
	keys := make([]string, 0, len(w.notes))
	for k := range w.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(os.Stderr, w.notes[k])
	}
	return nil
}

// op is one pass over the corpus. Every plan must respect its limits, equal
// the sequential reference, and cost no more than golden on its goal.
func (w *planWL) op(c opCtx) error {
	for _, r := range w.reqs {
		done := c.span("planner.Plan")
		res, err := planner.Plan(r)
		done()
		if err != nil {
			return fmt.Errorf("plan %s: %w", planKey(r), err)
		}
		if err := w.checkPlan(r, res); err != nil {
			return err
		}
	}
	return nil
}

func (w *planWL) checkPlan(r planner.Request, res *planner.Result) error {
	key := planKey(r)
	if metric, bad := r.Limits.Violated(res.Plan.Cost); bad {
		return fmt.Errorf("plan %s exceeds its %s limit", key, metric)
	}
	if ref := w.ref[key]; res.Plan.String() != ref.text || res.Plan.Cost != ref.cost {
		return fmt.Errorf("plan %s differs from the Workers: 1 plan", key)
	}
	want, ok := w.golden[key]
	if !ok {
		return fmt.Errorf("plan %s has no entry in %s (run -update-golden)", key, goldenPath)
	}
	got := res.Plan.Cost.Get(r.Goal)
	switch {
	case got > want*(1+goldenSlack):
		return fmt.Errorf("plan %s costs %g on its goal, golden is %g", key, got, want)
	case got < want*(1-goldenSlack):
		w.notes[key] = fmt.Sprintf("note: plan %s costs %g on its goal, cheaper than golden %g", key, got, want)
	}
	return nil
}

func (w *planWL) layers(tr *tracer, rs *runStats, m map[string]float64) error {
	c := opCtx{tr: tr, parent: tr.begin("replay", 0, 0)}
	defer tr.end(c.parent)
	// Certify every corpus query once per iteration; the cost is per query.
	lc := &layerCosts{}
	var err error
	lc.certify, err = timeIt(c, "runtime.Certify", w.replay*len(queries.All), func(i int) error {
		q := queries.All[i%len(queries.All)]
		_, err := runtime.Certify(q.Source, planN, int(q.Categories))
		return err
	})
	if err != nil {
		return err
	}
	lc.unitMetrics(m, shape{})
	plans := float64(len(w.reqs))
	m["planner.ms_per_plan"] = mean(durations(tr.snapshot(), "planner.Plan"))
	m["planner.alloc_kb_per_plan"] = w.seqStats.allocKB / plans
	m["planner.prefixes_per_plan"] = float64(w.seqStats.prefixes) / plans
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// updateGolden plans the corpus sequentially and rewrites the golden file.
// Only a benchmark PR does this: a later PR that makes a plan costlier must
// fail against the committed file, not overwrite it.
func updateGolden() error {
	golden := map[string]float64{}
	for _, r := range corpusRequests() {
		r.Workers = 1
		res, err := planner.Plan(r)
		if err != nil {
			return fmt.Errorf("plan %s: %w", planKey(r), err)
		}
		golden[planKey(r)] = res.Plan.Cost.Get(r.Goal)
	}
	data, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
