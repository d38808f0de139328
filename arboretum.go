// Package arboretum is a planner and runtime for large-scale federated
// analytics with differential privacy, reproducing the system described in
// "Arboretum: A Planner for Large-Scale Federated Analytics with
// Differential Privacy" (SOSP 2023).
//
// An analyst writes a query in a small imperative language as if the whole
// database existed on one machine:
//
//	aggr = sum(db);
//	result = em(aggr, 0.1);
//	output(result);
//
// Arboretum certifies the query as differentially private, explores the
// design space of concrete implementations — operator instantiations,
// vignette placement across the aggregator / committees of user devices /
// the devices themselves, and cryptosystem choices — and returns the
// cheapest plan under the analyst's cost limits. The companion runtime
// executes plans end to end on a simulated deployment with real
// cryptography: Paillier aggregation, honest-majority Shamir MPC inside
// committees, verifiable secret redistribution between committees,
// ZKP-checked inputs, and Merkle-audited aggregation.
//
// This package is the high-level facade; the implementation lives in the
// internal packages (see DESIGN.md for the full inventory).
package arboretum

import (
	"fmt"
	"time"

	"arboretum/internal/bgv"
	"arboretum/internal/costmodel"
	"arboretum/internal/faults"
	"arboretum/internal/plan"
	"arboretum/internal/planner"
	"arboretum/internal/queries"
	"arboretum/internal/runtime"
)

// Goal selects the metric the planner minimizes (Section 4.2 of the paper).
type Goal string

// The optimization goals: the six metrics of Section 4.2 plus the two
// derived energy goals.
const (
	MinimizeAggregatorCPU       Goal = "aggregator-cpu"
	MinimizeAggregatorBytes     Goal = "aggregator-bytes"
	MinimizeExpectedDeviceCPU   Goal = "device-expected-cpu"
	MinimizeExpectedDeviceBytes Goal = "device-expected-bytes"
	MinimizeMaxDeviceCPU        Goal = "device-max-cpu"
	MinimizeMaxDeviceBytes      Goal = "device-max-bytes"
	// MinimizeExpectedDeviceEnergy optimizes battery drain, mixing compute
	// and radio costs — the energy metric the paper mentions as an easy
	// extension (Section 4.2).
	MinimizeExpectedDeviceEnergy Goal = "device-expected-energy"
	// MinimizeMaxDeviceEnergy optimizes the worst-case (committee member)
	// battery drain.
	MinimizeMaxDeviceEnergy Goal = "device-max-energy"
)

func (g Goal) metric() (costmodel.Metric, error) {
	switch g {
	case MinimizeAggregatorCPU:
		return costmodel.AggCPU, nil
	case MinimizeAggregatorBytes:
		return costmodel.AggBytes, nil
	case MinimizeExpectedDeviceCPU, "":
		return costmodel.PartExpCPU, nil
	case MinimizeExpectedDeviceBytes:
		return costmodel.PartExpBytes, nil
	case MinimizeMaxDeviceCPU:
		return costmodel.PartMaxCPU, nil
	case MinimizeMaxDeviceBytes:
		return costmodel.PartMaxBytes, nil
	case MinimizeExpectedDeviceEnergy:
		return costmodel.PartExpEnergy, nil
	case MinimizeMaxDeviceEnergy:
		return costmodel.PartMaxEnergy, nil
	default:
		return 0, fmt.Errorf("arboretum: unknown goal %q", g)
	}
}

// Limits bounds acceptable plans; zero fields are unlimited (Section 4.2's
// example: "the aggregator must not spend more than 1,000 core-hours and
// user devices must not be asked to send more than 500 MB").
type Limits struct {
	AggregatorCoreHours float64
	AggregatorBytes     float64
	DeviceExpectedCPU   float64 // seconds
	DeviceExpectedBytes float64
	DeviceMaxCPU        float64 // seconds
	DeviceMaxBytes      float64
}

// DefaultLimits matches the paper's evaluation setup: devices send at most
// 4 GB and compute at most 20 minutes.
func DefaultLimits() Limits {
	return Limits{
		AggregatorCoreHours: 10000,
		DeviceMaxCPU:        20 * 60,
		DeviceMaxBytes:      4e9,
	}
}

func (l Limits) internal() costmodel.Limits {
	return costmodel.Limits{
		AggCPU:       l.AggregatorCoreHours * 3600,
		AggBytes:     l.AggregatorBytes,
		PartExpCPU:   l.DeviceExpectedCPU,
		PartExpBytes: l.DeviceExpectedBytes,
		PartMaxCPU:   l.DeviceMaxCPU,
		PartMaxBytes: l.DeviceMaxBytes,
	}
}

// PlanRequest describes one planning task.
type PlanRequest struct {
	Name       string // label for reporting
	Source     string // query text (Section 4.1's language)
	N          int64  // participants
	Categories int64  // width of each device's one-hot input row
	Goal       Goal
	Limits     Limits
	// ForceChoices pins operators to implementation families (prefix match,
	// e.g. {"sum": "device-tree"} or {"em": "gumbel"}) — used to price the
	// roads not taken.
	ForceChoices map[string]string
	// Workers bounds the planner's worker pool (0 = GOMAXPROCS;
	// 1 = sequential). The chosen plan is identical at every setting.
	Workers int
	// Ring selects the BGV ring the FHE costs are priced for, by name
	// ("paper" = the deployment ring, 2^15 degree / 135-bit RNS modulus;
	// "test" = the reduced unit-test ring). When set, the FHE constants in
	// the cost model are measured natively on that ring via
	// costmodel.CalibrateRing — the deployment ring now runs in-process, so
	// Table 1's FHE column is measured, not extrapolated. Empty keeps the
	// reference model's deployment-calibrated defaults.
	Ring string
}

// PlanResult is the planning outcome.
type PlanResult struct {
	// Summary renders the chosen plan in the style of the paper's Figure 5.
	Summary string
	// Detail additionally prices every vignette for one member/executor.
	Detail string
	// Choices records the search decisions (operator variants, fanouts) as
	// display labels — the vocabulary of ForceChoices and `explain`.
	Choices map[string]string

	// The six cost metrics of the chosen plan.
	AggregatorCoreHours float64
	AggregatorTerabytes float64
	DeviceExpectedCPU   float64 // seconds
	DeviceExpectedMB    float64
	DeviceMaxCPU        float64 // seconds
	DeviceMaxGB         float64

	CommitteeCount int
	CommitteeSize  int

	// Privacy certificate.
	Epsilon float64
	Delta   float64

	// Search statistics.
	PlanningTime     time.Duration
	PrefixesExplored int64

	// The plan itself, for RunPlanned.
	plan *plan.Plan
}

// Plan certifies and plans a query (Section 4 of the paper end to end).
func Plan(req PlanRequest) (*PlanResult, error) {
	metric, err := req.Goal.metric()
	if err != nil {
		return nil, err
	}
	var model *costmodel.Model
	if req.Ring != "" {
		rp, err := bgv.RingByName(req.Ring)
		if err != nil {
			return nil, err
		}
		if model, err = costmodel.CalibrateRing(rp); err != nil {
			return nil, err
		}
	}
	res, err := planner.Plan(planner.Request{
		Name:         req.Name,
		Source:       req.Source,
		N:            req.N,
		Categories:   req.Categories,
		Goal:         metric,
		Limits:       req.Limits.internal(),
		Model:        model,
		ForceChoices: req.ForceChoices,
		Workers:      req.Workers,
	})
	if err != nil {
		return nil, err
	}
	detailModel := model
	if detailModel == nil {
		detailModel = costmodel.Default()
	}
	p := res.Plan
	return &PlanResult{
		Summary:             p.String(),
		Detail:              p.DetailString(detailModel),
		Choices:             p.Choices,
		AggregatorCoreHours: p.Cost.AggCPU / 3600,
		AggregatorTerabytes: p.Cost.AggBytes / 1e12,
		DeviceExpectedCPU:   p.Cost.PartExpCPU,
		DeviceExpectedMB:    p.Cost.PartExpBytes / 1e6,
		DeviceMaxCPU:        p.Cost.PartMaxCPU,
		DeviceMaxGB:         p.Cost.PartMaxBytes / 1e9,
		CommitteeCount:      p.CommitteeCount,
		CommitteeSize:       p.CommitteeSize,
		Epsilon:             res.Certificate.Epsilon,
		Delta:               res.Certificate.Delta,
		PlanningTime:        res.PlanningTime,
		PrefixesExplored:    res.Stats.PrefixesExplored,
		plan:                p,
	}, nil
}

// DeploymentConfig shapes a simulated deployment for end-to-end execution.
type DeploymentConfig struct {
	Devices       int // participant devices (≥ 8)
	Categories    int // one-hot width of each input
	CommitteeSize int // default 5
	Seed          int64
	// MaliciousFraction of devices upload malformed inputs; the ZKP check
	// rejects them.
	MaliciousFraction float64
	// ByzantineAggregator corrupts one aggregation step; the Merkle audits
	// catch it and Run returns an error.
	ByzantineAggregator bool
	// Data maps a device index to its category; nil uses a skewed default.
	Data func(device int) int
	// BudgetEpsilon is the deployment's total privacy budget (default 10).
	BudgetEpsilon float64
	// Workers bounds the runtime's worker pool for per-device work
	// (0 = GOMAXPROCS; 1 = sequential). Released outputs are identical at
	// every setting.
	Workers int
	// Faults is a fault-injection schedule, e.g.
	// "seed=7,upload=0.1,dropout=0.005,shard@1" — comma-separated rates per
	// fault kind (upload, dropout, dealer, shard) plus forced
	// one-shot faults (kind@sequence). Schedules are pure functions of the
	// seed, so a run replays deterministically; see docs/FAULTS.md. Empty
	// disables injection.
	Faults string
	// IngestShards and IngestBatch shape input collection's sharded
	// streaming pipeline (docs/INGEST.md); they default to 8 and 64 when
	// ≤ 0, and released outputs are identical at every shape.
	IngestShards int
	IngestBatch  int
}

// Deployment is a running simulated federated-analytics system.
type Deployment struct {
	inner *runtime.Deployment
}

// NewDeployment registers the devices and runs the trusted setup.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	plan, err := faults.Parse(cfg.Faults)
	if err != nil {
		return nil, err
	}
	d, err := runtime.NewDeployment(runtime.Config{
		N:                   cfg.Devices,
		Categories:          cfg.Categories,
		CommitteeSize:       cfg.CommitteeSize,
		Seed:                cfg.Seed,
		MaliciousFrac:       cfg.MaliciousFraction,
		ByzantineAggregator: cfg.ByzantineAggregator,
		Data:                cfg.Data,
		BudgetEpsilon:       cfg.BudgetEpsilon,
		Workers:             cfg.Workers,
		Faults:              plan,
		IngestShards:        cfg.IngestShards,
		IngestBatch:         cfg.IngestBatch,
	})
	if err != nil {
		return nil, err
	}
	return &Deployment{inner: d}, nil
}

// FaultReport renders the fault plan, the log of injected faults, and the
// recovery counters accumulated so far — empty when the deployment has no
// fault schedule. The report is deterministic for a given (Seed, Faults)
// pair, so two runs with the same flags print identical reports.
func (d *Deployment) FaultReport() string {
	return d.inner.FaultReport()
}

// RunResult is one executed query.
type RunResult struct {
	// Outputs are the released values, in output() order.
	Outputs []float64
	// Epsilon actually charged to the deployment's budget.
	Epsilon float64
	// AcceptedInputs counts devices whose proofs verified.
	AcceptedInputs int
	// SampledDevices counts devices included by secrecy-of-the-sample
	// (equal to the deployment size when the query does not sample).
	SampledDevices int
	// Choices are the search decisions of the plan that was executed, as
	// display labels (PlanResult.Choices).
	Choices map[string]string
}

// Run plans a query for this deployment's own size and executes the plan end
// to end: sortition, key generation, ZKP-checked input collection, audited
// aggregation, committee MPC vignettes, output (Section 5 of the paper). The
// planner searches only the options the runtime has a code path for.
func (d *Deployment) Run(source string) (*RunResult, error) {
	return runResult(d.inner.Run(source, runtime.RunOptions{}))
}

func runResult(res *runtime.Result, err error) (*RunResult, error) {
	if err != nil {
		return nil, err
	}
	outs := make([]float64, len(res.Outputs))
	for i, o := range res.Outputs {
		outs[i] = o.Float()
	}
	return &RunResult{
		Outputs:        outs,
		Epsilon:        res.Certificate.Epsilon,
		AcceptedInputs: res.Accepted,
		SampledDevices: res.Sampled,
		Choices:        res.Plan.Choices,
	}, nil
}

// RemainingBudget returns the deployment's unspent privacy budget.
func (d *Deployment) RemainingBudget() (epsilon, delta float64) {
	return d.inner.Budget.Remaining()
}

// QueryInfo describes one of the built-in evaluation queries (the paper's
// Table 2).
type QueryInfo struct {
	Name       string
	Action     string
	Source     string
	Categories int64
	Lines      int
}

// EvaluationQueries returns the paper's ten evaluation queries, ready to
// pass to Plan or Deployment.Run.
func EvaluationQueries() []QueryInfo {
	out := make([]QueryInfo, 0, len(queries.All))
	for _, q := range queries.All {
		out = append(out, QueryInfo{
			Name: q.Name, Action: q.Action, Source: q.Source,
			Categories: q.Categories, Lines: q.Lines(),
		})
	}
	return out
}

// RunPlanned executes a query under a plan made by Plan — typically at
// deployment scale (N = 2^30): this is how the two phases of the paper
// compose, plan once, execute with the same structure. The runtime reads the
// plan's typed choices (the em variant and the sum tree's fanout) and sizes
// committees from its own configuration. A plan that chose an option the
// runtime cannot execute (an FHE circuit, one-shot top-k) is refused with
// runtime.ErrPlanNotExecutable before anything is spent; pin the step with
// ForceChoices, or let Run plan.
func (d *Deployment) RunPlanned(p *PlanResult, source string) (*RunResult, error) {
	if p == nil {
		return nil, fmt.Errorf("arboretum: nil plan")
	}
	return runResult(d.inner.RunPlan(p.plan, source, runtime.RunOptions{}))
}
