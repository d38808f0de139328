package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"arboretum/internal/ledger"
	"arboretum/internal/runtime"
	"arboretum/internal/service"
	"arboretum/internal/wal"
)

// Gateway shapes: the service's own defaults, stated here because the
// replay and the shadow operation must run at the same shape.
const (
	gatewayDevices    = 96
	gatewayCategories = 8
	gatewayJobEps     = 1.0 // certificate ε of one Laplace count job
	pollInterval      = 5 * time.Millisecond
	maxSubmitRetries  = 50
	tmpPattern        = ".benchtmp-" // made in the working directory, so inside the checkout
)

// gatewayWL is gateway-closed: each client submits a Laplace count job to an
// in-process gateway over HTTP, polls its status until it is terminal, and
// fetches the result. It is the only workload that reaches service, ledger
// and wal (every job transition is fsynced before it is observable) and
// that builds a deployment per job.
type gatewayWL struct {
	seed    int64
	nClient int
	replay  int

	dir   string
	srv   *service.Server
	front *httptest.Server
	http  *http.Client
	query string

	mu      sync.Mutex
	done    map[string]int // tenant → jobs that reached done
	jobs    []jobTimes     // stamps of timed jobs
	retries atomic.Int64
}

// jobTimes are one job's lifecycle stamps from its JSON.
type jobTimes struct{ submitted, started, finished time.Time }

// jobJSON is the part of the gateway's job document the benchmark reads.
type jobJSON struct {
	ID           string    `json:"id"`
	State        string    `json:"state"`
	SpentEpsilon float64   `json:"spent_epsilon"`
	Submitted    time.Time `json:"submitted"`
	Started      time.Time `json:"started"`
	Finished     time.Time `json:"finished"`
	Outputs      []float64 `json:"outputs"`
	Error        string    `json:"error"`
}

func newGatewayClosed(seed int64, clients, replay int) *gatewayWL {
	return &gatewayWL{
		seed: seed, nClient: clients, replay: replay,
		query: laplaceCountQuery(gatewayJobEps),
		http:  &http.Client{Timeout: 2 * time.Minute},
	}
}

func (w *gatewayWL) clients() int { return w.nClient }

func tenantOf(client int) string { return fmt.Sprintf("analyst-%d", client) }

const smallTenant = "small" // its whole budget is less than one job's ε

// setup starts a gateway on a fresh ledger and journal on the real file
// system (the durability path fsyncs), one tenant per client plus the small
// tenant the over-budget probes hit, and runs one warm-up job.
func (w *gatewayWL) setup(c opCtx) error {
	dir, err := os.MkdirTemp(".", tmpPattern)
	if err != nil {
		return err
	}
	w.dir = dir
	tenants := []service.TenantSpec{{ID: smallTenant, Epsilon: gatewayJobEps / 2, Delta: 1e-6}}
	for i := 0; i < w.nClient; i++ {
		tenants = append(tenants, service.TenantSpec{ID: tenantOf(i), Epsilon: hugeBudget, Delta: 1e-3})
	}
	done := c.span("service.New")
	w.srv, err = service.New(service.Config{
		LedgerPath: filepath.Join(dir, "ledger.wal"),
		Tenants:    tenants,
		Seed:       w.seed,
		JobWorkers: w.nClient,
		Logf:       func(string, ...any) {},
	})
	done()
	if err != nil {
		return err
	}
	w.front = httptest.NewServer(w.srv.Handler())
	w.done = map[string]int{}
	w.jobs = nil
	if err := w.op(c); err != nil {
		return fmt.Errorf("warm-up operation: %w", err)
	}
	w.jobs = nil // the warm-up job's stamps are not a timed sample
	return nil
}

func (w *gatewayWL) teardown() error {
	if w.front == nil {
		return nil
	}
	w.front.Close()
	w.front = nil
	return errors.Join(w.srv.Close(), os.RemoveAll(w.dir))
}

// call makes one HTTP request under a span and decodes the JSON reply.
func (w *gatewayWL) call(c opCtx, spanName, method, path string, body, reply any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, w.front.URL+path, rd)
	if err != nil {
		return 0, err
	}
	done := c.span(spanName)
	resp, err := w.http.Do(req)
	if err != nil {
		done()
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	done()
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if reply != nil {
		if err := json.Unmarshal(data, reply); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode %q: %w", method, path, data, err)
		}
	}
	return resp.StatusCode, nil
}

// submit posts the job, retrying the typed back-pressure replies (429, 503)
// a closed-loop client would wait out.
func (w *gatewayWL) submit(c opCtx, tenant string) (jobJSON, error) {
	var job jobJSON
	for attempt := 0; ; attempt++ {
		status, err := w.call(c, "service.submit", http.MethodPost, "/v1/queries",
			map[string]string{"tenant": tenant, "source": w.query}, &job)
		if err != nil {
			return job, err
		}
		switch {
		case status == http.StatusAccepted:
			return job, nil
		case (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && attempt < maxSubmitRetries:
			w.retries.Add(1)
			time.Sleep(pollInterval)
		default:
			return job, fmt.Errorf("submit: status %d", status)
		}
	}
}

// probe sends a query the small tenant cannot afford and expects the typed
// refusal; nothing may be charged or left reserved for it.
func (w *gatewayWL) probe(c opCtx) error {
	var reply struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	status, err := w.call(c, "service.reject", http.MethodPost, "/v1/queries",
		map[string]string{"tenant": smallTenant, "source": w.query}, &reply)
	if err != nil {
		return err
	}
	if status != http.StatusConflict || reply.Error.Code != "budget_exhausted" {
		return fmt.Errorf("over-budget probe: status %d code %q, want 409 budget_exhausted", status, reply.Error.Code)
	}
	return nil
}

// op is submit → poll status → fetch result for one job; every fourth
// operation first sends an over-budget probe, so admission-only requests
// and writes run beside the reads of the other client's polling.
func (w *gatewayWL) op(c opCtx) error {
	if c.id%4 == 0 {
		if err := w.probe(c); err != nil {
			return err
		}
	}
	tenant := tenantOf(c.client)
	job, err := w.submit(c, tenant)
	if err != nil {
		return err
	}
	for job.State == "queued" || job.State == "running" {
		time.Sleep(pollInterval)
		status, err := w.call(c, "service.status", http.MethodGet, "/v1/queries/"+job.ID, nil, &job)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status of %s: HTTP %d", job.ID, status)
		}
	}
	status, err := w.call(c, "service.result", http.MethodGet, "/v1/queries/"+job.ID+"/result", nil, &job)
	if err != nil {
		return err
	}
	if status != http.StatusOK || job.State != "done" {
		return fmt.Errorf("job %s: HTTP %d state %q error %q", job.ID, status, job.State, job.Error)
	}
	if len(job.Outputs) == 0 {
		return fmt.Errorf("job %s is done with no outputs", job.ID)
	}
	if job.SpentEpsilon != gatewayJobEps {
		return fmt.Errorf("job %s spent ε %g, certificate ε is %g", job.ID, job.SpentEpsilon, gatewayJobEps)
	}
	w.mu.Lock()
	w.done[tenant]++
	w.jobs = append(w.jobs, jobTimes{job.Submitted, job.Started, job.Finished})
	w.mu.Unlock()
	return nil
}

// verify is the end-of-run accounting check: every tenant spent exactly
// done jobs × certificate ε, the small tenant spent nothing, and no
// reservation is left.
func (w *gatewayWL) verify() error {
	want := map[string]float64{smallTenant: 0}
	for i := 0; i < w.nClient; i++ {
		want[tenantOf(i)] = float64(w.done[tenantOf(i)]) * gatewayJobEps
	}
	for tenant, spent := range want {
		var b ledger.Balance
		status, err := w.call(opCtx{}, "", http.MethodGet, "/v1/tenants/"+tenant+"/budget", nil, &b)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("budget of %s: HTTP %d: %v", tenant, status, err)
		}
		if b.EpsSpent != spent || b.EpsReserved != 0 {
			return fmt.Errorf("tenant %s spent ε %g (want %g), reserved %g (want 0)", tenant, b.EpsSpent, spent, b.EpsReserved)
		}
	}
	return nil
}

func (w *gatewayWL) layers(tr *tracer, rs *runStats, m map[string]float64) error {
	spans := tr.snapshot()
	m["service.admit_ms_p50"] = median(durations(spans, "service.submit"))
	m["service.reject_ms_p50"] = median(durations(spans, "service.reject"))
	m["service.status_us_p50"] = median(durations(spans, "service.status")) * 1e3
	m["service.retries"] = float64(w.retries.Load())
	var wait, exec, total []float64
	w.mu.Lock()
	for _, j := range w.jobs {
		wait = append(wait, j.started.Sub(j.submitted).Seconds()*1e3)
		exec = append(exec, j.finished.Sub(j.started).Seconds()*1e3)
		total = append(total, j.finished.Sub(j.submitted).Seconds()*1e3)
	}
	w.mu.Unlock()
	m["service.queue_wait_ms_p50"] = median(wait)
	m["service.execute_ms_p50"] = median(exec)
	m["service.job_tail_ms"] = percentile(total, tailPercentile(len(total)))

	c := opCtx{tr: tr, parent: tr.begin("replay", 0, 0), speed: &rs.speed}
	defer tr.end(c.parent)
	start := time.Now()
	sh := shape{n: gatewayDevices, c: gatewayCategories, committee: 5, keyBits: 512, decrypts: 1}
	lc, err := replayRun(c, w.query, sh, w.replay)
	if err != nil {
		return err
	}
	if err := w.replayDurability(c, lc); err != nil {
		return err
	}
	lc.unitMetrics(m, sh)
	replaySpeed := rs.speed.factor(start, time.Now())

	// The gateway builds a private deployment per job, so its counters are
	// out of reach. A shadow operation — the same query on a deployment of
	// the same shape, built and run directly — supplies the exact counts
	// and the NewDeployment/Run split of one job's execution.
	shadow := &runWL{sh: sh, seed: w.seed, query: w.query, check: func(*runtime.Result) error { return nil }}
	shadow.data, _ = uniformData(rand.New(rand.NewSource(w.seed)), sh.n, sh.c)
	if err := shadow.setup(c); err != nil {
		return fmt.Errorf("shadow operation: %w", err)
	}
	ops := float64(len(rs.ops))
	runtimeMetrics(m, tr.snapshot(), sh, shadow.base, 1, lc, replaySpeed, rs.cpu.Seconds()/ops*rs.opSpeed)
	return nil
}

// replayDurability times the two durable writes a job admission is built
// from, on the real file system: a ledger Reserve+Commit pair (two fsynced
// records) and one wal.Append of a single record.
func (w *gatewayWL) replayDurability(c opCtx, lc *layerCosts) error {
	led, err := ledger.Open(filepath.Join(w.dir, "replay-ledger.wal"), ledger.Options{})
	if err != nil {
		return err
	}
	if err := led.CreateTenant("replay", hugeBudget, 1e-3); err != nil {
		return errors.Join(err, led.Close())
	}
	lc.ledgerReserveCommit, err = timeIt(c, "ledger.Reserve+Commit", 4*w.replay, func(i int) error {
		job := fmt.Sprintf("replay-%d", i)
		if err := led.Reserve("replay", job, 1, 0); err != nil {
			return err
		}
		return led.Commit("replay", job, 1, 0)
	})
	if err = errors.Join(err, led.Close()); err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(w.dir, "replay.wal"),
		func() *ledger.Record { return &ledger.Record{} },
		func(*ledger.Record) error { return nil }, wal.Options{})
	if err != nil {
		return err
	}
	lc.walAppend, err = timeIt(c, "wal.Append", 4*w.replay, func(i int) error {
		return log.Append(&ledger.Record{Op: ledger.OpReserve, Tenant: "replay", Job: fmt.Sprint(i), Eps: 1})
	})
	return errors.Join(err, log.Close())
}
