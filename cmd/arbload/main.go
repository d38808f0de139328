// Command arbload drives an arboretumd analyst gateway over HTTP, as the
// engine behind scripts/loadtest.sh's conformance and crash-recovery passes.
// (The gateway's tracked latency/throughput baseline is the gateway-closed
// workload of bench/, not this command.)
//
// Usage:
//
//	arbload -addr 127.0.0.1:8750 -smoke
//	arbload -addr 127.0.0.1:8750 -phase submit -ids FILE -queries 24 -tenants 4
//	arbload -addr 127.0.0.1:8750 -phase verify -ids FILE
//
// -smoke runs the API-conformance pass CI uses: it exercises every
// endpoint of docs/SERVICE.md (health, tenant create/list/budget, query
// submit/list/status/result/cancel), including a typed budget-exhausted
// rejection and a cancel of a queued job, and asserts the tenant's budget
// debit equals exactly the committed certificate spend. It expects the
// daemon to run with -job-workers 1 so a second submission stays queued
// behind the first (scripts/loadtest.sh arranges this).
//
// The two -phase modes split a submission burst around a daemon kill, as
// the engine behind `scripts/loadtest.sh -kill`. Submissions retry
// rate-limited (429) and queue-full (503) rejections, so a tight daemon
// -rate is exercised, not fatal.
//
// `-phase submit` submits without waiting, appending one "tenant id"
// line to FILE per accepted (202) job, and exits cleanly when the daemon
// is killed mid-burst (transport errors are the expected end of the
// phase, not a failure). `-phase verify` runs against the restarted
// daemon: every acknowledged job in FILE must recover to done with the
// exact certificate spend, every durable-but-unacknowledged job must
// be terminal (done, or failed closed as "crashed"), nothing may be left
// reserved, and each tenant's spent ε must equal its done jobs × the
// per-query ε — the exact-accounting bar for crash recovery.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"
)

// countQuery is the cheap fixed-price workload: a Laplace count with ε = 1
// (its certificate is exactly ε=1.0, which makes budget arithmetic exact).
const countQuery = "aggr = sum(db);\nnoised = laplace(aggr[0], 1.0);\noutput(declassify(noised));"

// countEpsilon is countQuery's certified price.
const countEpsilon = 1.0

// overBudgetQuery prices above any smoke tenant's remaining ε.
const overBudgetQuery = "aggr = sum(db);\nnoised = laplace(aggr[0], 50.0);\noutput(declassify(noised));"

func main() {
	addr := flag.String("addr", "127.0.0.1:8750", "arboretumd address")
	smoke := flag.Bool("smoke", false, "run the API conformance pass")
	phase := flag.String("phase", "", `kill-test phase: "submit" or "verify" (needs -ids)`)
	ids := flag.String("ids", "", "accepted-job file for -phase (one \"tenant id\" line per job)")
	queries := flag.Int("queries", 24, "total queries to submit (-phase submit)")
	tenants := flag.Int("tenants", 4, "tenants to spread the burst across (-phase submit)")
	timeout := flag.Duration("timeout", 3*time.Minute, "per-job completion timeout")
	flag.Parse()

	c := &client{base: "http://" + *addr, timeout: *timeout}
	var err error
	switch {
	case *smoke:
		err = runSmoke(c)
	case *phase == "submit":
		err = runKillSubmit(c, *queries, *tenants, *ids)
	case *phase == "verify":
		err = runKillVerify(c, *ids)
	case *phase != "":
		err = fmt.Errorf("unknown -phase %q (want submit or verify)", *phase)
	default:
		fmt.Fprintln(os.Stderr, "arbload: need -smoke or -phase submit|verify")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbload:", err)
		os.Exit(1)
	}
}

// client is a minimal JSON API client for the docs/SERVICE.md surface.
type client struct {
	base    string
	timeout time.Duration
}

// apiErr mirrors the service error envelope.
type apiErr struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// call performs one request and decodes the JSON response into out (may be
// nil). It returns the status code and, for non-2xx, the error envelope.
func (c *client) call(method, path string, body, out any) (int, *apiErr, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode >= 300 {
		var e apiErr
		_ = json.Unmarshal(data, &e)
		return resp.StatusCode, &e, nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, nil, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil, nil
}

// job mirrors the service's job view.
type job struct {
	ID           string    `json:"id"`
	Tenant       string    `json:"tenant"`
	State        string    `json:"state"`
	Epsilon      float64   `json:"epsilon"`
	SpentEpsilon float64   `json:"spent_epsilon"`
	Outputs      []float64 `json:"outputs"`
	Error        string    `json:"error"`
	ErrorCode    string    `json:"error_code"`
}

// balance mirrors ledger.Balance.
type balance struct {
	Tenant      string  `json:"tenant"`
	EpsTotal    float64 `json:"eps_total"`
	EpsSpent    float64 `json:"eps_spent"`
	EpsReserved float64 `json:"eps_reserved"`
	Queries     int     `json:"queries"`
}

// ensureTenant creates the tenant, tolerating one that already exists
// (ledger files persist across daemon restarts).
func (c *client) ensureTenant(id string, eps float64) error {
	status, e, err := c.call("POST", "/v1/tenants", map[string]any{"tenant": id, "epsilon": eps}, nil)
	if err != nil {
		return err
	}
	if status != http.StatusCreated && (e == nil || e.Error.Code != "tenant_exists") {
		return fmt.Errorf("create tenant %s: status %d (%+v)", id, status, e)
	}
	return nil
}

// submit posts one query, retrying rate-limit and queue-full rejections.
func (c *client) submit(tenant, source string) (job, error) {
	deadline := time.Now().Add(c.timeout)
	for {
		var j job
		status, e, err := c.call("POST", "/v1/queries", map[string]any{"tenant": tenant, "source": source}, &j)
		if err != nil {
			return job{}, err
		}
		if status == http.StatusAccepted {
			return j, nil
		}
		if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
			if time.Now().After(deadline) {
				return job{}, fmt.Errorf("submit for %s: still throttled at deadline (%+v)", tenant, e)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		return job{}, fmt.Errorf("submit for %s: status %d (%+v)", tenant, status, e)
	}
}

// wait polls the status endpoint until the job is terminal, then fetches
// the result.
func (c *client) wait(id string) (job, error) {
	deadline := time.Now().Add(c.timeout)
	for {
		var j job
		status, e, err := c.call("GET", "/v1/queries/"+id, nil, &j)
		if err != nil {
			return job{}, err
		}
		if status != http.StatusOK {
			return job{}, fmt.Errorf("status %s: %d (%+v)", id, status, e)
		}
		switch j.State {
		case "done", "failed", "canceled":
			var full job
			if status, e, err := c.call("GET", "/v1/queries/"+id+"/result", nil, &full); err != nil || status != http.StatusOK {
				return job{}, fmt.Errorf("result %s: %d (%+v): %v", id, status, e, err)
			}
			return full, nil
		}
		if time.Now().After(deadline) {
			return job{}, fmt.Errorf("job %s still %s after %v", id, j.State, c.timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (c *client) budget(tenant string) (balance, error) {
	var b balance
	status, e, err := c.call("GET", "/v1/tenants/"+tenant+"/budget", nil, &b)
	if err != nil || status != http.StatusOK {
		return b, fmt.Errorf("budget %s: %d (%+v): %v", tenant, status, e, err)
	}
	return b, nil
}

// runSmoke is the endpoint-by-endpoint conformance pass (see the command
// comment). It assumes a fresh ledger and a single-job-worker daemon.
func runSmoke(c *client) error {
	// 1. Health.
	var health map[string]any
	if status, e, err := c.call("GET", "/healthz", nil, &health); err != nil || status != http.StatusOK {
		return fmt.Errorf("healthz: %d (%+v): %v", status, e, err)
	}
	if health["status"] != "ok" {
		return fmt.Errorf("healthz: %v", health)
	}
	// 2. Tenants: create two, list, read a budget.
	if err := c.ensureTenant("smoke-a", 3.5); err != nil {
		return err
	}
	if err := c.ensureTenant("smoke-b", 1.0); err != nil {
		return err
	}
	var listed struct {
		Tenants []balance `json:"tenants"`
	}
	if status, e, err := c.call("GET", "/v1/tenants", nil, &listed); err != nil || status != http.StatusOK {
		return fmt.Errorf("list tenants: %d (%+v): %v", status, e, err)
	}
	if len(listed.Tenants) < 2 {
		return fmt.Errorf("list tenants: %d tenants, want ≥ 2", len(listed.Tenants))
	}
	b0, err := c.budget("smoke-a")
	if err != nil {
		return err
	}
	if b0.EpsTotal != 3.5 {
		return fmt.Errorf("smoke-a eps_total = %g, want 3.5", b0.EpsTotal)
	}
	// 3. Submit one query (runs) and a second (stays queued behind it —
	// the daemon runs one job at a time in smoke mode), cancel the second.
	j1, err := c.submit("smoke-a", countQuery)
	if err != nil {
		return err
	}
	if j1.Epsilon != countEpsilon {
		return fmt.Errorf("job reserved ε = %g, want %g", j1.Epsilon, countEpsilon)
	}
	j2, err := c.submit("smoke-a", countQuery)
	if err != nil {
		return err
	}
	var canceled job
	if status, e, err := c.call("DELETE", "/v1/queries/"+j2.ID, nil, &canceled); err != nil || status != http.StatusOK {
		return fmt.Errorf("cancel %s: %d (%+v): %v", j2.ID, status, e, err)
	}
	// 4. Over-budget submission is rejected with a typed error before
	// executing: smoke-b holds ε=1, the query needs ε=50.
	if status, e, err := c.call("POST", "/v1/queries",
		map[string]any{"tenant": "smoke-b", "source": overBudgetQuery}, nil); err != nil {
		return err
	} else if status != http.StatusConflict || e == nil || e.Error.Code != "budget_exhausted" {
		return fmt.Errorf("over-budget submit: status %d code %+v, want 409 budget_exhausted", status, e)
	}
	// 5. First job completes and releases outputs.
	done, err := c.wait(j1.ID)
	if err != nil {
		return err
	}
	if done.State != "done" {
		return fmt.Errorf("job %s: state %s (%s: %s)", j1.ID, done.State, done.ErrorCode, done.Error)
	}
	if len(done.Outputs) == 0 {
		return fmt.Errorf("job %s: no outputs", j1.ID)
	}
	if done.SpentEpsilon != countEpsilon {
		return fmt.Errorf("job %s: spent ε = %g, want %g", j1.ID, done.SpentEpsilon, countEpsilon)
	}
	// 6. The ledger debited exactly the committed certificate: one done
	// query spent, the canceled reservation released.
	a, err := c.budget("smoke-a")
	if err != nil {
		return err
	}
	if a.EpsSpent != countEpsilon || a.EpsReserved != 0 || a.Queries != 1 {
		return fmt.Errorf("smoke-a balance after session = %+v, want spent %g, reserved 0, 1 query", a, countEpsilon)
	}
	b, err := c.budget("smoke-b")
	if err != nil {
		return err
	}
	if b.EpsSpent != 0 || b.EpsReserved != 0 {
		return fmt.Errorf("smoke-b balance = %+v, want untouched", b)
	}
	// 7. The job listing shows the session.
	var jobs struct {
		Jobs []job `json:"jobs"`
	}
	if status, e, err := c.call("GET", "/v1/queries?tenant=smoke-a", nil, &jobs); err != nil || status != http.StatusOK {
		return fmt.Errorf("list jobs: %d (%+v): %v", status, e, err)
	}
	states := map[string]int{}
	for _, j := range jobs.Jobs {
		states[j.State]++
	}
	if states["done"] != 1 || states["canceled"] != 1 {
		return fmt.Errorf("job states = %v, want one done and one canceled", states)
	}
	fmt.Println("arbload: smoke ok — all endpoints exercised, budgets exact")
	return nil
}

// runKillSubmit is the first half of the kill test: submit without waiting,
// recording each accepted job as a "tenant id" line in idsPath. The daemon
// is SIGKILLed mid-burst by the driving script, so a transport error is the
// phase's expected ending, not a failure — the accepted set on disk is what
// the verify phase holds recovery to.
func runKillSubmit(c *client, queries, tenants int, idsPath string) error {
	if idsPath == "" {
		return fmt.Errorf("-phase submit needs -ids")
	}
	if tenants < 1 || queries < 1 {
		return fmt.Errorf("need positive -queries/-tenants")
	}
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("kill-%d", i)
		if err := c.ensureTenant(names[i], float64(queries)*countEpsilon); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(idsPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	accepted := 0
	for i := 0; i < queries; i++ {
		j, err := c.submit(names[i%tenants], countQuery)
		if err != nil {
			fmt.Printf("arbload: submit phase ended after %d accepted: %v\n", accepted, err)
			return nil
		}
		if _, err := fmt.Fprintf(f, "%s %s\n", j.Tenant, j.ID); err != nil {
			return err
		}
		accepted++
	}
	fmt.Printf("arbload: submit phase accepted all %d queries\n", accepted)
	return nil
}

// runKillVerify is the second half of the kill test, run against the
// restarted daemon. Every job acknowledged before the kill must recover to
// done with the exact certificate spend; jobs the daemon made durable but never
// acknowledged (their 202 died with the process) must be terminal too —
// re-executed to done, or failed closed as "crashed" — and each tenant's
// ledger must balance exactly: nothing reserved, spent ε equal to done jobs
// × the per-query certificate, query count matching.
func runKillVerify(c *client, idsPath string) error {
	if idsPath == "" {
		return fmt.Errorf("-phase verify needs -ids")
	}
	data, err := os.ReadFile(idsPath)
	if err != nil {
		return err
	}
	acked := map[string][]string{} // tenant → job IDs acknowledged pre-kill
	total := 0
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return fmt.Errorf("ids file %s: bad line %q", idsPath, line)
		}
		acked[fields[0]] = append(acked[fields[0]], fields[1])
		total++
	}
	if total == 0 {
		return fmt.Errorf("ids file %s records no accepted jobs — the kill fired before the burst started", idsPath)
	}

	for tenant, ids := range acked {
		for _, id := range ids {
			j, err := c.wait(id)
			if err != nil {
				return err
			}
			if j.State != "done" {
				return fmt.Errorf("tenant %s job %s: recovered to %s (%s: %s), want done",
					tenant, id, j.State, j.ErrorCode, j.Error)
			}
			if j.SpentEpsilon != countEpsilon {
				return fmt.Errorf("tenant %s job %s: spent ε = %g, want %g", tenant, id, j.SpentEpsilon, countEpsilon)
			}
		}
	}

	recoveredExtra, failedClosed := 0, 0
	for tenant, ids := range acked {
		var listed struct {
			Jobs []job `json:"jobs"`
		}
		if status, e, err := c.call("GET", "/v1/queries?tenant="+tenant, nil, &listed); err != nil || status != http.StatusOK {
			return fmt.Errorf("list jobs for %s: %d (%+v): %v", tenant, status, e, err)
		}
		done := 0
		for _, lj := range listed.Jobs {
			// Unacknowledged recovered jobs may still be re-executing when the
			// acknowledged set finishes; wait polls each to terminal (a no-op
			// for jobs already there).
			j, err := c.wait(lj.ID)
			if err != nil {
				return err
			}
			switch j.State {
			case "done":
				done++
			case "failed":
				if j.ErrorCode != "crashed" {
					return fmt.Errorf("tenant %s job %s: failed with %q (%s), want fail-closed \"crashed\"",
						tenant, j.ID, j.ErrorCode, j.Error)
				}
				failedClosed++
			default:
				return fmt.Errorf("tenant %s job %s: unexpected terminal state %s", tenant, j.ID, j.State)
			}
		}
		if done < len(ids) {
			return fmt.Errorf("tenant %s: %d done jobs but %d were acknowledged pre-kill", tenant, done, len(ids))
		}
		recoveredExtra += done - len(ids)
		b, err := c.budget(tenant)
		if err != nil {
			return err
		}
		wantSpent := float64(done) * countEpsilon
		if math.Abs(b.EpsSpent-wantSpent) > 1e-9 || b.EpsReserved != 0 || b.Queries != done {
			return fmt.Errorf("tenant %s: balance %+v, want spent %g, reserved 0, %d queries (double-spend or leaked reservation)",
				tenant, b, wantSpent, done)
		}
	}
	fmt.Printf("arbload: kill verify ok — %d acknowledged jobs done, %d unacknowledged recovered, %d failed closed, budgets exact\n",
		total, recoveredExtra, failedClosed)
	return nil
}
