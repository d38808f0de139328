package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one of the four named workloads. setup builds the system
// under test and runs one untimed warm-up operation; the harness calls it
// several times (teardown in between) so set-up time is a median, and times
// operations on the last one built.
type workload interface {
	setup(c opCtx) error
	teardown() error
	// clients is the number of closed-loop clients: each sends its next
	// operation only after the previous one completed.
	clients() int
	// op runs one operation and checks its output against the reference the
	// workload computed itself; an error is a failed operation.
	op(c opCtx) error
	// verify checks what only the whole run can show (the gateway's ledger
	// accounting); an error makes the run incorrect.
	verify() error
	// layers computes the per-layer metrics of a traced run into m.
	layers(tr *tracer, rs *runStats, m map[string]float64) error
}

// opCtx carries what an operation needs to record spans: the tracer (nil
// when this operation is untraced), the span that caused it, the client
// that issued it and the operation id its spans share. A replay also carries
// the run's speedometer.
type opCtx struct {
	tr     *tracer
	parent int
	client int
	id     int
	speed  *speedometer // sampled between replay loops; nil during set-up and operations
}

// span opens a child span of the operation and returns the function that
// closes it.
func (c opCtx) span(name string) func() {
	id := c.tr.begin(name, c.parent, c.id)
	return func() { c.tr.end(id) }
}

// opSample is one timed operation; begin and end are kept for the tests that
// check no kernel sample fell inside one.
type opSample struct {
	id         int
	begin, end time.Time
	ms         float64
	traced     bool
	err        error
}

// runStats is what the timed section measured.
type runStats struct {
	ops     []opSample
	wall    time.Duration
	cpu     time.Duration // process user+sys over the timed section
	alloc   uint64        // MemStats.TotalAlloc delta
	setupS  float64       // process start to first timed operation, set-up as a median
	setupsS []float64     // each set-up's own time

	speed               speedometer // reference-kernel samples taken through the run
	setupSpeed, opSpeed float64     // machine-speed factors of the two phases
}

func (rs *runStats) failed() int {
	n := 0
	for _, o := range rs.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// latencies returns the operation times in ms, of all operations or of only
// the traced / untraced ones.
func (rs *runStats) latencies(filter func(opSample) bool) []float64 {
	var out []float64
	for _, o := range rs.ops {
		if filter == nil || filter(o) {
			out = append(out, o.ms)
		}
	}
	return out
}

// cpuTime is the process's user+sys CPU so far, which catches wall time
// bought with more cores.
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runWorkload sets the workload up setups times, then runs operations in a
// closed loop on each client until stop says so. stop sees how many
// operations have started and how long the timed section has run; it is
// consulted before every operation, so an operation that has started always
// completes and is counted. With tr non-nil every second operation is
// traced and the others are not, so one run yields both halves of the
// tracing-overhead comparison under the same machine state.
//
// The reference kernel is sampled before every set-up, on both sides of the
// timed section, and between operations — never while an operation is in
// flight: an operation holds inFlight shared and the sampler holds it
// exclusively. A client that finds a sample due therefore waits for the other
// clients' operations to finish, and their next ones wait while it samples;
// with several clients (gateway-closed) the clients so start their operations
// together. What the sampling inside the timed section costs is taken out of
// the section's wall and CPU time.
func runWorkload(w workload, tr *tracer, setups int, stop func(started int, elapsed time.Duration) bool) (*runStats, error) {
	rs := &runStats{}
	preamble := time.Since(processStart)
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		rs.speed.sample(2)
		t0 := time.Now()
		root := tr.begin("setup", 0, 0)
		err := w.setup(opCtx{tr: tr, parent: root})
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		rs.setupsS = append(rs.setupsS, time.Since(t0).Seconds())
	}
	rs.setupS = preamble.Seconds() + median(rs.setupsS)

	// The samples between the phases close the set-up phase and open the
	// timed section.
	boundary := time.Now()
	rs.speed.sample(bracketSamples)
	rs.setupSpeed = rs.speed.factor(processStart, time.Now())
	runtime.GC() // start every timed section from a collected heap
	var (
		mu       sync.Mutex
		inFlight sync.RWMutex
		sampler  sync.Mutex
		started  atomic.Int64
		wg       sync.WaitGroup
	)
	sampledWall, sampledCPU := rs.speed.spent()
	alloc0, cpu0, t0 := totalAlloc(), cpuTime(), time.Now()
	for client := 0; client < w.clients(); client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				id := int(started.Add(1))
				if stop(id-1, time.Since(t0)) {
					return
				}
				optr := tr
				if id%2 == 0 {
					optr = nil
				}
				inFlight.RLock()
				begin := time.Now()
				root := optr.begin("op", 0, id)
				err := w.op(opCtx{tr: optr, parent: root, client: client, id: id})
				optr.end(root)
				end := time.Now()
				inFlight.RUnlock()
				s := opSample{id: id, begin: begin, end: end, ms: float64(end.Sub(begin)) / 1e6, traced: optr != nil, err: err}
				mu.Lock()
				rs.ops = append(rs.ops, s)
				mu.Unlock()
				// One client samples for all: a second one that queued for
				// inFlight behind it would hold the others back in turn, for
				// a whole operation each time.
				if rs.speed.due() > 0 && sampler.TryLock() {
					inFlight.Lock()
					rs.speed.catchUp()
					inFlight.Unlock()
					sampler.Unlock()
				}
			}
		}(client)
	}
	wg.Wait()
	wall, cpu := rs.speed.spent()
	rs.wall = time.Since(t0) - (wall - sampledWall)
	rs.cpu = cpuTime() - cpu0 - (cpu - sampledCPU)
	rs.alloc = totalAlloc() - alloc0
	rs.speed.sample(bracketSamples)
	rs.opSpeed = rs.speed.factor(boundary, time.Now())
	return rs, nil
}

// endToEndMetrics derives the contract's end-to-end metrics from a run.
// With scaled set, every time is brought to reference machine speed: set-up
// time by the set-up phase's factor; operation latency, throughput and CPU by
// the timed section's.
func endToEndMetrics(rs *runStats, scaled bool) map[string]float64 {
	setupSpeed, opSpeed := 1.0, 1.0
	if scaled {
		setupSpeed, opSpeed = rs.setupSpeed, rs.opSpeed
	}
	n := float64(len(rs.ops))
	good := n - float64(rs.failed())
	return map[string]float64{
		"setup_s":         rs.setupS * setupSpeed,
		"op_p50_ms":       median(rs.latencies(nil)) * opSpeed,
		"ops_per_s":       good / (rs.wall.Seconds() * opSpeed),
		"cpu_s_per_op":    rs.cpu.Seconds() / n * opSpeed,
		"alloc_mb_per_op": float64(rs.alloc) / 1e6 / n,
	}
}

// benchLayerMetrics fills the bench.* per-layer metrics: the tail latency
// (with the percentile it was read at and the sample count), the time an
// operation spent in the benchmark's own code, tracing overhead and the
// failed share.
func benchLayerMetrics(tr *tracer, rs *runStats, m map[string]float64) {
	all := rs.latencies(nil)
	pct := tailPercentile(len(all))
	m["bench.op_tail_ms"] = percentile(all, pct)
	m["bench.op_tail_pct"] = pct
	m["bench.op_tail_n"] = float64(len(all))

	traced := median(rs.latencies(func(o opSample) bool { return o.traced }))
	untraced := median(rs.latencies(func(o opSample) bool { return !o.traced }))
	if untraced > 0 && traced > 0 {
		m["bench.trace_overhead_share"] = (traced - untraced) / untraced
	}
	spans := tr.snapshot()
	self := selfTimes(spans)
	var selfMs []float64
	for _, s := range spans {
		if s.Name == "op" {
			selfMs = append(selfMs, float64(self[s.ID])/1e6)
		}
	}
	m["bench.op_self_ms"] = median(selfMs)
	m["bench.speed_factor"] = rs.opSpeed
	m["bench.failed_share"] = float64(rs.failed()) / float64(len(rs.ops))
}
