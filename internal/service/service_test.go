package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"arboretum/internal/faults"
	"arboretum/internal/lang"
	"arboretum/internal/ledger"
	"arboretum/internal/privacy"
	"arboretum/internal/runtime"
)

// countQuery is the fixed-price test query: a Laplace count over the
// one-hot database, certifying at exactly ε=1.
const countQuery = "aggr = sum(db);\nnoised = laplace(aggr[0], 1.0);\noutput(declassify(noised));"

// testConfig is a small, fast deployment shape shared by the suite.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		LedgerPath:    filepath.Join(t.TempDir(), "ledger"),
		Devices:       16,
		Categories:    4,
		CommitteeSize: 3,
		Seed:          1,
		JobWorkers:    2,
		Logf:          t.Logf,
	}
}

// startT builds a gateway with the given test hooks plus an httptest front
// end, and tears both down.
func startT(t *testing.T, cfg Config, h hooks) (*Server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// call does one JSON round trip and decodes the response into out (ignored
// when nil), returning the status code.
func call(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// errorCode extracts the typed code from an error envelope.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func submit(t *testing.T, base, tenant, source string) (Job, int, string) {
	t.Helper()
	var raw json.RawMessage
	code := call(t, "POST", base+"/v1/queries", map[string]string{"tenant": tenant, "source": source}, &raw)
	if code == http.StatusAccepted {
		var j Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		return j, code, ""
	}
	var e errEnvelope
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatal(err)
	}
	return Job{}, code, e.Error.Code
}

// waitTerminal polls status until the job leaves queued/running.
func waitTerminal(t *testing.T, base, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var j Job
		if code := call(t, "GET", base+"/v1/queries/"+id, nil, &j); code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		switch j.State {
		case JobDone, JobFailed, JobCanceled:
			return j
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in 60s", id)
	return Job{}
}

func budget(t *testing.T, base, tenant string) ledger.Balance {
	t.Helper()
	var b ledger.Balance
	if code := call(t, "GET", base+"/v1/tenants/"+tenant+"/budget", nil, &b); code != http.StatusOK {
		t.Fatalf("budget %s: HTTP %d", tenant, code)
	}
	return b
}

// TestTwoTenantSession is the headline acceptance scenario: two tenants run
// queries through one gateway, each metered against its own budget; when a
// tenant's remaining ε cannot price the next certificate, that query is
// rejected with a typed error before execution while the other tenant is
// unaffected.
func TestTwoTenantSession(t *testing.T) {
	cfg := testConfig(t)
	price, err := runtime.Certify(countQuery, cfg.Devices, cfg.Categories)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tenants = []TenantSpec{
		{ID: "alice", Epsilon: 3 * price.Epsilon, Delta: 1e-6},
		{ID: "bob", Epsilon: price.Epsilon, Delta: 1e-6}, // exactly one query
	}
	_, ts := startT(t, cfg, hooks{})

	ja, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("alice submit: HTTP %d", code)
	}
	jb, code, _ := submit(t, ts.URL, "bob", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("bob submit: HTTP %d", code)
	}
	if ja.Epsilon != price.Epsilon || jb.Epsilon != price.Epsilon {
		t.Fatalf("admitted prices %g/%g, want %g", ja.Epsilon, jb.Epsilon, price.Epsilon)
	}

	fa, fb := waitTerminal(t, ts.URL, ja.ID), waitTerminal(t, ts.URL, jb.ID)
	if fa.State != JobDone || fb.State != JobDone {
		t.Fatalf("states %s/%s (%s / %s), want done/done", fa.State, fb.State, fa.Error, fb.Error)
	}
	var res Job
	if code := call(t, "GET", ts.URL+"/v1/queries/"+ja.ID+"/result", nil, &res); code != http.StatusOK {
		t.Fatalf("result: HTTP %d", code)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %v, want one released value", res.Outputs)
	}

	// Independent metering: spend equals exactly the sum of committed
	// certificates, per tenant.
	ba, bb := budget(t, ts.URL, "alice"), budget(t, ts.URL, "bob")
	if math.Abs(ba.EpsSpent-price.Epsilon) > 1e-9 || ba.EpsReserved != 0 || ba.Queries != 1 {
		t.Fatalf("alice balance %+v, want spent=%g", ba, price.Epsilon)
	}
	if math.Abs(bb.EpsSpent-price.Epsilon) > 1e-9 || bb.EpsReserved != 0 || bb.Queries != 1 {
		t.Fatalf("bob balance %+v, want spent=%g", bb, price.Epsilon)
	}

	// bob is now exhausted: the next query is refused before execution with
	// a typed error and no balance change; alice still has budget.
	if _, code, ec := submit(t, ts.URL, "bob", countQuery); code != http.StatusConflict || ec != "budget_exhausted" {
		t.Fatalf("over-budget submit = HTTP %d code %q, want 409 budget_exhausted", code, ec)
	}
	if after := budget(t, ts.URL, "bob"); after != bb {
		t.Fatalf("rejected query changed bob's balance: %+v -> %+v", bb, after)
	}
	if _, code, _ := submit(t, ts.URL, "alice", countQuery); code != http.StatusAccepted {
		t.Fatalf("alice blocked by bob's exhaustion: HTTP %d", code)
	}
}

// unboundedLoop is within alice's budget but runs its loop 2·10^9 times.
const unboundedLoop = "aggr = sum(db);\nx = 0;\nfor i = 0 to 2000000000 do\n  x = x + 1;\nendfor;\n" +
	"output(declassify(laplace(aggr[0], 0.1)));\noutput(x);"

// TestAdmissionRejections covers every pre-execution refusal: none of these
// may touch the ledger or enqueue work.
func TestAdmissionRejections(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 0.5, Delta: 1e-6}}
	s, ts := startT(t, cfg, hooks{})

	cases := []struct {
		name    string
		body    any
		code    int
		errCode string
	}{
		{"over budget (ε=1 > 0.5) refused before execution",
			map[string]string{"tenant": "alice", "source": countQuery},
			http.StatusConflict, "budget_exhausted"},
		{"non-private program",
			map[string]string{"tenant": "alice", "source": "aggr = sum(db);\noutput(declassify(aggr[0]));"},
			http.StatusBadRequest, "not_private"},
		{"two sampleUniform calls (one query, one sample) refused by the front end",
			map[string]string{"tenant": "alice", "source": "sampleUniform(0.5); sampleUniform(1);\n" + countQuery},
			http.StatusBadRequest, "not_private"},
		{"a loop nest past 2^20 iterations refused by the front end",
			map[string]string{"tenant": "alice", "source": unboundedLoop},
			http.StatusBadRequest, "not_private"},
		{"explicit ε = 0 (nothing to charge, nothing to run) refused by the front end",
			map[string]string{"tenant": "alice", "source": "hist = sum(db);\noutput(declassify(laplace(hist[0], 0)));"},
			http.StatusBadRequest, "not_private"},
		{"a program with no mechanism (nothing to charge) refused by the front end",
			map[string]string{"tenant": "alice", "source": "aggr = sum(db);\noutput(1);"},
			http.StatusBadRequest, "not_private"},
		{"unknown tenant",
			map[string]string{"tenant": "mallory", "source": countQuery},
			http.StatusNotFound, "no_tenant"},
		{"bad fault spec",
			map[string]string{"tenant": "alice", "source": countQuery, "faults": "frob=1"},
			http.StatusBadRequest, "bad_request"},
		{"missing fields", map[string]string{"tenant": "alice"},
			http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		var e errEnvelope
		if code := call(t, "POST", ts.URL+"/v1/queries", tc.body, &e); code != tc.code || e.Error.Code != tc.errCode {
			t.Errorf("%s: HTTP %d code %q, want %d %q", tc.name, code, e.Error.Code, tc.code, tc.errCode)
		}
	}
	if b := budget(t, ts.URL, "alice"); b.EpsSpent != 0 || b.EpsReserved != 0 {
		t.Fatalf("rejections moved the balance: %+v", b)
	}
	if n := len(s.store.byTenant("alice")); n != 0 {
		t.Fatalf("%d jobs registered by rejected submissions", n)
	}
	if got := s.ledger.Seq(); got != 1 { // only the tenant-create record
		t.Fatalf("ledger advanced to seq %d on rejected submissions", got)
	}
}

// TestQueueSlotBeforeAdmission: a submission takes its queue slot before it
// is admitted, so a full queue refuses any source, an inadmissible one
// included, 503 queue_full without parsing it; and every refusal after the
// slot returns it, so a queue of one keeps admitting.
func TestQueueSlotBeforeAdmission(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 1
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 1.5, Delta: 1e-6}}
	s, ts := startT(t, cfg, hooks{})
	const inadmissible = "aggr = sum(db);\noutput(declassify(aggr[0]));"

	if err := s.store.reserveSlot(); err != nil {
		t.Fatal(err)
	}
	if _, code, ec := submit(t, ts.URL, "alice", inadmissible); code != http.StatusServiceUnavailable || ec != "queue_full" {
		t.Fatalf("inadmissible source, queue full: HTTP %d %q, want 503 queue_full", code, ec)
	}
	s.store.releaseSlot()
	for i := 0; i < 3; i++ {
		if _, code, ec := submit(t, ts.URL, "alice", inadmissible); code != http.StatusBadRequest || ec != "not_private" {
			t.Fatalf("inadmissible source %d: HTTP %d %q, want 400 not_private", i, code, ec)
		}
	}
	j, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the refusals: HTTP %d", code)
	}
	if f := waitTerminal(t, ts.URL, j.ID); f.State != JobDone {
		t.Fatalf("job: state %s (%s), want done", f.State, f.Error)
	}
	if _, code, ec := submit(t, ts.URL, "alice", countQuery); code != http.StatusConflict || ec != "budget_exhausted" {
		t.Fatalf("over budget: HTTP %d %q, want 409 budget_exhausted", code, ec)
	}
	if _, code, _ := submit(t, ts.URL, "alice", strings.Replace(countQuery, "1.0", "0.25", 1)); code != http.StatusAccepted {
		t.Fatalf("submit after the budget refusal: HTTP %d", code)
	}
}

// TestJobAdmittedOnce: the submit handler admits and plans the query, and the
// executor runs exactly that. The certificate the run charges is the object
// that priced the reservation, not an equal one from a second admission, and
// the settled job lets the admission go.
func TestJobAdmittedOnce(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "acme", Epsilon: 10, Delta: 1e-6}}
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})
	same := make(chan bool, 1)
	s.run = func(ctx context.Context, j *Job, a *runtime.Admitted) (*runtime.Result, string, error) {
		res, report, err := s.runDeployment(ctx, j, a)
		same <- err == nil && a != nil && res.Certificate == a.Certificate
		return res, report, err
	}
	close(hold)
	j, code, _ := submit(t, ts.URL, "acme", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if f := waitTerminal(t, ts.URL, j.ID); f.State != JobDone {
		t.Fatalf("job: state %s (%s), want done", f.State, f.Error)
	}
	if !<-same {
		t.Error("the run charged a certificate other than the one its admission reserved")
	}
	s.store.mu.Lock()
	kept := s.store.jobs[j.ID].admitted
	s.store.mu.Unlock()
	if kept != nil {
		t.Error("a settled job keeps its admitted program and plan")
	}
}

// TestBodyAndNestingBounds: a body past maxBody, to either endpoint that
// reads one, gets 413 too_large, and a source nested 10^5 levels deep, small
// enough to read, is refused 400 not_private with lang.ErrTooDeep behind it.
// Neither writes a record, and the gateway goes on admitting.
func TestBodyAndNestingBounds(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
	s, ts := startT(t, cfg, hooks{})
	seq := s.ledger.Seq()
	huge := strings.Repeat("x", maxBody)
	for _, c := range []struct {
		path string
		body map[string]string
	}{
		{"/v1/queries", map[string]string{"tenant": "alice", "source": huge}},
		{"/v1/tenants", map[string]string{"tenant": huge}},
	} {
		var e errEnvelope
		if code := call(t, "POST", ts.URL+c.path, c.body, &e); code != http.StatusRequestEntityTooLarge || e.Error.Code != "too_large" {
			t.Errorf("POST %s, %d-byte body: HTTP %d code %q, want 413 too_large", c.path, len(huge), code, e.Error.Code)
		}
	}
	const n = 100_000
	deep := "aggr = sum(db);\nx = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + ";\n" +
		"output(declassify(laplace(aggr[0], 1.0)));"
	var e errEnvelope
	if code := call(t, "POST", ts.URL+"/v1/queries", map[string]string{"tenant": "alice", "source": deep}, &e); code != http.StatusBadRequest || e.Error.Code != "not_private" {
		t.Errorf("%d-deep source: HTTP %d code %q, want 400 not_private", n, code, e.Error.Code)
	}
	if !strings.Contains(e.Error.Message, lang.ErrTooDeep.Error()) {
		t.Errorf("message %q does not carry lang.ErrTooDeep", e.Error.Message)
	}
	if got := s.ledger.Seq(); got != seq {
		t.Errorf("refused bodies advanced the ledger from seq %d to %d", seq, got)
	}
	j, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the refusals: HTTP %d", code)
	}
	if j = waitTerminal(t, ts.URL, j.ID); j.State != JobDone {
		t.Errorf("job after the refusals ended %s: %s", j.State, j.Error)
	}
}

// TestUnboundedSensitivityNotPrivate: a laplace argument one row can move
// without limit is refused at submission with the 400 not_private every
// other certification failure gets, and the error behind it is the
// certifier's typed privacy.ErrUnboundedSensitivity.
func TestUnboundedSensitivityNotPrivate(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
	s, ts := startT(t, cfg, hooks{})
	const src = "aggr = sum(db);\nx = aggr[0] * aggr[1];\nn = laplace(x, 1.0);\noutput(declassify(n));"
	var e errEnvelope
	body := map[string]string{"tenant": "alice", "source": src}
	if code := call(t, "POST", ts.URL+"/v1/queries", body, &e); code != http.StatusBadRequest || e.Error.Code != "not_private" {
		t.Fatalf("HTTP %d code %q, want 400 not_private", code, e.Error.Code)
	}
	if !strings.Contains(e.Error.Message, privacy.ErrUnboundedSensitivity.Error()) {
		t.Errorf("message %q does not carry the refusal", e.Error.Message)
	}
	// The gateway certifies with runtime.Certify at its own shape.
	if _, err := runtime.Certify(src, cfg.Devices, cfg.Categories); !errors.Is(err, privacy.ErrUnboundedSensitivity) {
		t.Errorf("Certify = %v, want privacy.ErrUnboundedSensitivity", err)
	}
	if n := len(s.store.byTenant("alice")); n != 0 {
		t.Errorf("%d jobs registered by the refused submission", n)
	}
}

// TestRefusedSubmissionWritesNothing: the balance check precedes the one
// append, so a submission refused for budget or tenant leaves no record — the
// log's sequence and the file's size do not move however many arrive — and
// the refusals read exactly as they always have.
func TestRefusedSubmissionWritesNothing(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 0.5, Delta: 1e-6}}
	s, ts := startT(t, cfg, hooks{})
	seq, size := s.ledger.Seq(), s.ledger.Size()

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	overBudget, _ := json.Marshal(map[string]string{"tenant": "alice", "source": countQuery})
	noTenant, _ := json.Marshal(map[string]string{"tenant": "mallory", "source": countQuery})
	const n = 25
	for i := 0; i < n; i++ {
		if code, body := post(string(overBudget)); code != http.StatusConflict ||
			body != `{"error":{"code":"budget_exhausted","message":"ledger: privacy budget exhausted: tenant \"alice\" needs ε=1, has 0.5 of 0.5 (0 spent, 0 reserved)"}}`+"\n" {
			t.Fatalf("over-budget submission %d = HTTP %d %s", i, code, body)
		}
		if code, body := post(string(noTenant)); code != http.StatusNotFound ||
			body != `{"error":{"code":"no_tenant","message":"unknown tenant \"mallory\""}}`+"\n" {
			t.Fatalf("unknown-tenant submission %d = HTTP %d %s", i, code, body)
		}
	}
	if got := s.ledger.Seq(); got != seq {
		t.Fatalf("%d refused submissions moved the log from seq %d to %d", 2*n, seq, got)
	}
	fi, err := os.Stat(cfg.LedgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size || s.ledger.Size() != size {
		t.Fatalf("%d refused submissions grew the file from %d to %d bytes", 2*n, size, fi.Size())
	}
	if _, err := os.Stat(cfg.LedgerPath + ".jobs"); !os.IsNotExist(err) {
		t.Fatalf("a second durable file appeared beside the ledger: %v", err)
	}
	if n := len(s.store.byTenant("alice")); n != 0 {
		t.Fatalf("%d jobs registered by refused submissions", n)
	}
}

// TestDurableWritesPerOperation counts the records each operation costs,
// from the log's own sequence: an accepted job that runs to done is three
// (reserve, claim, commit), a job canceled while queued is two (reserve,
// release), a refused submission none.
func TestDurableWritesPerOperation(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 2, Delta: 1e-6}}
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})
	at := s.ledger.Seq()
	delta := func(what string, want uint64) {
		t.Helper()
		if got := s.ledger.Seq() - at; got != want {
			t.Fatalf("%s cost %d records, want %d", what, got, want)
		}
		at = s.ledger.Seq()
	}

	parked, code, _ := submit(t, ts.URL, "alice", countQuery) // dequeued, parked at the gate
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	delta("admission", 1)
	queued, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if code := call(t, "DELETE", ts.URL+"/v1/queries/"+queued.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	delta("a job canceled while queued", 2)
	// alice has 2 − 1 (held) = 1 left, so ε = 1 still fits; a third would not
	// once it is held too.
	if _, code, _ := submit(t, ts.URL, "alice", countQuery); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	delta("admission", 1)
	if _, code, ec := submit(t, ts.URL, "alice", countQuery); code != http.StatusConflict || ec != "budget_exhausted" {
		t.Fatalf("over-budget submit = HTTP %d %q", code, ec)
	}
	if _, code, ec := submit(t, ts.URL, "mallory", countQuery); code != http.StatusNotFound || ec != "no_tenant" {
		t.Fatalf("unknown-tenant submit = HTTP %d %q", code, ec)
	}
	delta("two refused submissions", 0)

	close(hold)
	if f := waitTerminal(t, ts.URL, parked.ID); f.State != JobDone {
		t.Fatalf("job = %s (%s)", f.State, f.Error)
	}
	for _, j := range s.store.byTenant("alice") {
		waitTerminal(t, ts.URL, j.ID)
	}
	delta("running two admitted jobs to done", 2*2) // claim + commit each: 3 with the reserve
}

// TestLongQueryRunsThroughGateway: planning happens at admission, and its
// search does not grow with the number of mechanism calls, so a query of six
// em/max pairs is admitted, planned, run and charged like any other.
func TestLongQueryRunsThroughGateway(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 1, Delta: 1e-6}}
	_, ts := startT(t, cfg, hooks{})

	var src strings.Builder
	src.WriteString("aggr = sum(db);\n")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&src, "r%d = em(aggr, 0.01);\nm%d = max(aggr);\n", i, i)
	}
	src.WriteString("output(r0);\n")
	j, code, ec := submit(t, ts.URL, "alice", src.String())
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d code %q, want the certified query admitted", code, ec)
	}
	if math.Abs(j.Epsilon-0.06) > 1e-9 {
		t.Fatalf("admitted at ε = %g, want six em calls at 0.01", j.Epsilon)
	}
	f := waitTerminal(t, ts.URL, j.ID)
	if f.State != JobDone {
		t.Fatalf("job ended %s code %q (%s), want done", f.State, f.ErrorCode, f.Error)
	}
	if b := budget(t, ts.URL, "alice"); math.Abs(b.EpsSpent-j.Epsilon) > 1e-9 || b.EpsReserved != 0 || b.Queries != 1 {
		t.Fatalf("balance after the run %+v, want %g spent", b, j.Epsilon)
	}
}

// TestCancelQueuedReleasesReservation: with one parked executor, a second
// submission stays queued; canceling it returns its ε immediately, and the
// executor later skips the canceled job without running it.
func TestCancelQueuedReleasesReservation(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
	hold := make(chan struct{})
	_, ts := startT(t, cfg, hooks{hold: hold})

	j1, code, _ := submit(t, ts.URL, "alice", countQuery) // dequeued, parked at the gate
	if code != http.StatusAccepted {
		t.Fatalf("submit 1: HTTP %d", code)
	}
	j2, code, _ := submit(t, ts.URL, "alice", countQuery) // stays queued
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: HTTP %d", code)
	}
	if b := budget(t, ts.URL, "alice"); math.Abs(b.EpsReserved-j1.Epsilon-j2.Epsilon) > 1e-9 {
		t.Fatalf("reserved %g, want both admissions held", b.EpsReserved)
	}

	var got Job
	if code := call(t, "DELETE", ts.URL+"/v1/queries/"+j2.ID, nil, &got); code != http.StatusOK || got.State != JobCanceled {
		t.Fatalf("cancel = HTTP %d state %s", code, got.State)
	}
	if b := budget(t, ts.URL, "alice"); math.Abs(b.EpsReserved-j1.Epsilon) > 1e-9 {
		t.Fatalf("cancel did not release: reserved %g", b.EpsReserved)
	}
	// Result of a canceled job is its terminal record, not 409.
	if code := call(t, "GET", ts.URL+"/v1/queries/"+j2.ID+"/result", nil, &got); code != http.StatusOK || got.State != JobCanceled {
		t.Fatalf("canceled result = HTTP %d state %s", code, got.State)
	}

	close(hold) // run j1, skip canceled j2
	f1 := waitTerminal(t, ts.URL, j1.ID)
	if f1.State != JobDone {
		t.Fatalf("j1 = %s (%s)", f1.State, f1.Error)
	}
	if f2 := waitTerminal(t, ts.URL, j2.ID); f2.State != JobCanceled || len(f2.Outputs) != 0 {
		t.Fatalf("canceled job ran: %+v", f2)
	}
	b := budget(t, ts.URL, "alice")
	if math.Abs(b.EpsSpent-j1.Epsilon) > 1e-9 || b.EpsReserved != 0 || b.Queries != 1 {
		t.Fatalf("final balance %+v, want only j1 spent", b)
	}
	// Terminal jobs are not cancelable.
	var e errEnvelope
	if code := call(t, "DELETE", ts.URL+"/v1/queries/"+j1.ID, nil, &e); code != http.StatusConflict || e.Error.Code != "not_cancelable" {
		t.Fatalf("cancel done job = HTTP %d %q", code, e.Error.Code)
	}
}

// TestStoreClaimVsCancel pins the atomic Queued→Running transition: a
// canceled job can never be claimed (its reservation is already released),
// a claimed job can never be canceled, and a job is claimed at most once.
func TestStoreClaimVsCancel(t *testing.T) {
	st := newStore(2, 0, 0)
	for _, j := range []*Job{{ID: "a"}, {ID: "b"}} {
		if err := st.reserveSlot(); err != nil {
			t.Fatal(err)
		}
		st.add(j)
	}
	// The queue is full: a third submission is refused before it costs
	// anything, and a refused one gives its slot back.
	if err := st.reserveSlot(); !errors.Is(err, errQueueFull) {
		t.Fatalf("slot in a full queue = %v, want errQueueFull", err)
	}
	if _, err := st.cancel("a"); err != nil {
		t.Fatal(err)
	}
	if st.claim("a") {
		t.Fatal("claimed a canceled job")
	}
	if !st.claim("b") {
		t.Fatal("claim of a queued job refused")
	}
	if j, _, _ := st.get("b"); j.State != JobRunning || j.Started.IsZero() {
		t.Fatalf("claimed job = %s started %v, want running", j.State, j.Started)
	}
	if _, err := st.cancel("b"); !errors.Is(err, errNotCancelable) {
		t.Fatalf("cancel of a running job = %v, want errNotCancelable", err)
	}
	if st.claim("b") {
		t.Fatal("job claimed twice")
	}
	if st.claim("ghost") {
		t.Fatal("claimed an unknown job")
	}
}

// TestCancelExecuteRace races DELETE against the executor dequeuing the
// same queued job, round after round. Whichever side wins the store mutex,
// the job either runs and commits or is canceled and released — never a
// canceled state overwritten by a run whose ε was already refunded. The
// final spend must be exactly the sum of completed certificates.
func TestCancelExecuteRace(t *testing.T) {
	const rounds = 12
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 2 * rounds, Delta: 1e-3}}
	hold := make(chan struct{})
	_, ts := startT(t, cfg, hooks{hold: hold})

	wantSpent, done, canceled := 0.0, 0, 0
	for i := 0; i < rounds; i++ {
		j, code, _ := submit(t, ts.URL, "alice", countQuery)
		if code != http.StatusAccepted {
			t.Fatalf("round %d: submit HTTP %d", i, code)
		}
		// The worker has dequeued j and is parked at the gate; fire the gate
		// token and the cancel concurrently so claim and cancel race for the
		// store mutex.
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			hold <- struct{}{}
		}()
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("DELETE", ts.URL+"/v1/queries/"+j.ID, nil)
			if err != nil {
				return
			}
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		wg.Wait()
		switch f := waitTerminal(t, ts.URL, j.ID); f.State {
		case JobDone:
			done++
			wantSpent += f.SpentEpsilon
		case JobCanceled:
			canceled++
			if len(f.Outputs) != 0 || f.SpentEpsilon != 0 {
				t.Fatalf("round %d: canceled job has outputs/spend: %+v", i, f)
			}
		default:
			t.Fatalf("round %d: job ended %s (%s)", i, f.State, f.Error)
		}
	}
	t.Logf("race rounds: %d done, %d canceled", done, canceled)
	b := budget(t, ts.URL, "alice")
	if math.Abs(b.EpsSpent-wantSpent) > 1e-9 || b.EpsReserved != 0 || b.Queries != done {
		t.Fatalf("balance %+v, want spent=%g reserved=0 queries=%d", b, wantSpent, done)
	}
}

// TestSubmitDuringShutdown: Close stops admission under the store mutex, so
// a submission racing shutdown gets a typed 503 instead of panicking on a
// closed queue. Jobs admitted but never started keep their reserve record
// and so their reservation — a restart on the same ledger re-executes them
// and settles to exact accounting.
func TestSubmitDuringShutdown(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 1000, Delta: 1e-3}}
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})

	j1, code, _ := submit(t, ts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code) // parks the worker at the gate
	}
	accepted := []Job{j1}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()

	// Close has shut admission (or is about to); keep submitting until the
	// typed refusal lands. Submissions admitted before the cutover stay
	// queued (drain does not start new work) and recover after restart.
	deadline := time.Now().Add(10 * time.Second)
	refused := false
	for !refused && time.Now().Before(deadline) {
		j, code, ec := submit(t, ts.URL, "alice", countQuery)
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, j)
		case http.StatusServiceUnavailable:
			if ec != "shutting_down" {
				t.Fatalf("refused with %q, want shutting_down", ec)
			}
			refused = true
		}
	}
	if !refused {
		t.Fatal("no shutting_down refusal within 10s of Close")
	}
	close(hold) // open the gate: the parked worker sees draining and exits
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// None of the admitted jobs ran: each holds exactly its certified
	// reservation, in the log for the next process.
	var wantEps float64
	for _, j := range accepted {
		wantEps += j.Epsilon
	}
	if b, _ := s.ledger.Balance("alice"); math.Abs(b.EpsReserved-wantEps) > 1e-9 || b.EpsSpent != 0 {
		t.Fatalf("post-drain balance %+v, want reserved=%g spent=0 for %d queued jobs",
			b, wantEps, len(accepted))
	}

	// Restart on the same ledger: recovery re-enqueues and re-executes every
	// admitted job, committing exactly the certified spend.
	s2, ts2 := startT(t, cfg, hooks{})
	for _, j := range accepted {
		f := waitTerminal(t, ts2.URL, j.ID)
		if f.State != JobDone || !f.Recovered {
			t.Fatalf("recovered job %s = %s recovered=%v (%s)", j.ID, f.State, f.Recovered, f.Error)
		}
	}
	if b, _ := s2.ledger.Balance("alice"); math.Abs(b.EpsSpent-wantEps) > 1e-9 || b.EpsReserved != 0 || b.Queries != len(accepted) {
		t.Fatalf("post-recovery balance %+v, want spent=%g reserved=0 queries=%d",
			b, wantEps, len(accepted))
	}
}

// TestRateAndInFlightLimits exercises the two 429 paths without running any
// deployment: the parked job is canceled before the gate opens.
func TestRateAndInFlightLimits(t *testing.T) {
	t.Run("rate", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.JobWorkers = 1
		cfg.Rate, cfg.Burst = 0.0001, 1 // one instant token, refill ~3h away
		cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
		hold := make(chan struct{})
		_, ts := startT(t, cfg, hooks{hold: hold})
		j1, code, _ := submit(t, ts.URL, "alice", countQuery)
		if code != http.StatusAccepted {
			t.Fatalf("first submit: HTTP %d", code)
		}
		if _, code, ec := submit(t, ts.URL, "alice", countQuery); code != http.StatusTooManyRequests || ec != "rate_limited" {
			t.Fatalf("second submit = HTTP %d %q, want 429 rate_limited", code, ec)
		}
		call(t, "DELETE", ts.URL+"/v1/queries/"+j1.ID, nil, nil)
		close(hold)
	})
	t.Run("inflight", func(t *testing.T) {
		cfg := testConfig(t)
		cfg.JobWorkers = 1
		cfg.MaxInFlight = 1
		cfg.Tenants = []TenantSpec{{ID: "alice", Epsilon: 10, Delta: 1e-6}}
		hold := make(chan struct{})
		_, ts := startT(t, cfg, hooks{hold: hold})
		j1, code, _ := submit(t, ts.URL, "alice", countQuery)
		if code != http.StatusAccepted {
			t.Fatalf("first submit: HTTP %d", code)
		}
		if _, code, ec := submit(t, ts.URL, "alice", countQuery); code != http.StatusTooManyRequests || ec != "too_many_inflight" {
			t.Fatalf("second submit = HTTP %d %q, want 429 too_many_inflight", code, ec)
		}
		call(t, "DELETE", ts.URL+"/v1/queries/"+j1.ID, nil, nil)
		close(hold)
	})
}

// TestWALCrashRecovery is the chaos acceptance scenario for the "wal" kind:
// the ledger's WAL crashes (injected via internal/faults) exactly on one of
// the job's records — the claim, or the commit after the deployment ran. A
// record that does not become durable did not happen, and the gateway stops
// with its log: nothing is settled in the dying process, the ε stays
// reserved on disk, and a restarted gateway finds exactly a job that crashed
// before that record — it re-executes to the uncrashed digest and commits.
// Final balances are identical to a crash-free run's and stable across
// further replays.
func TestWALCrashRecovery(t *testing.T) {
	// The uncrashed run of the same job (seq 1) pins the digest.
	base := testConfig(t)
	base.Tenants = []TenantSpec{{ID: "alice", Epsilon: 5, Delta: 1e-6}}
	_, bts := startT(t, base, hooks{})
	bj, code, _ := submit(t, bts.URL, "alice", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: HTTP %d", code)
	}
	want := waitTerminal(t, bts.URL, bj.ID)
	if want.State != JobDone || want.ResultDigest == "" {
		t.Fatalf("baseline job = %s digest %q", want.State, want.ResultDigest)
	}

	// Record 1 = tenant create, 2 = reserve at admission, 3 = the claim,
	// 4 = the commit. Stage 0 dies before the record, stage 1 tears it.
	for _, tc := range []struct {
		name       string
		seq, stage int
		state      JobState // where the dying process leaves the job
	}{
		{"claim", 3, 0, JobQueued},
		{"commit", 4, 0, JobRunning},
		{"commit-torn", 4, 1, JobRunning},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.Tenants = base.Tenants
			walCrash := faults.New(1).ForceAt(faults.WALCrash, tc.seq, tc.stage)
			s, ts := startT(t, cfg, hooks{ledger: walCrash})

			j, code, _ := submit(t, ts.URL, "alice", countQuery)
			if code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", code)
			}
			waitCrashed(t, s)
			if n := len(walCrash.Fired()); n != 1 {
				t.Fatalf("%d WAL crashes fired, want 1", n)
			}
			// Nothing settled: the job is where the log has it, its
			// reservation held, and the dead gateway admits nothing.
			if got, _, _ := s.store.get(j.ID); got.State != tc.state {
				t.Fatalf("job in the dying process = %s, want %s", got.State, tc.state)
			}
			if b, _ := s.ledger.Balance("alice"); b.EpsReserved != j.Epsilon || b.EpsSpent != 0 {
				t.Fatalf("post-crash balance %+v", b)
			}
			if _, code, ec := submit(t, ts.URL, "alice", countQuery); code != http.StatusServiceUnavailable || ec != "shutting_down" {
				t.Fatalf("submit to a gateway whose log died = HTTP %d %q", code, ec)
			}
			ts.Close()
			s.Close()

			// Restart on the same WAL, no fault plan.
			s2, ts2 := startT(t, cfg, hooks{})
			f := waitTerminal(t, ts2.URL, j.ID)
			if f.State != JobDone || !f.Recovered || f.ResultDigest != want.ResultDigest {
				t.Fatalf("recovered job = %s recovered=%v digest %q (%s), want done with the uncrashed digest %q",
					f.State, f.Recovered, f.ResultDigest, f.Error, want.ResultDigest)
			}
			b, ok := s2.ledger.Balance("alice")
			if !ok || math.Abs(b.EpsSpent-j.Epsilon) > 1e-9 || b.EpsReserved != 0 || b.Queries != 1 {
				t.Fatalf("recovered balance %+v, want spent=%g reserved=0 queries=1", b, j.Epsilon)
			}
			ts2.Close()
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			// A plain replay of the recovered WAL reproduces identical balances.
			l, err := ledger.Open(cfg.LedgerPath, ledger.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if rb, _ := l.Balance("alice"); rb != b {
				t.Fatalf("replay diverged: %+v vs %+v", rb, b)
			}
		})
	}
}

// TestHealthAndTenantEndpoints rounds out the API surface.
func TestHealthAndTenantEndpoints(t *testing.T) {
	cfg := testConfig(t)
	cfg.JobWorkers = 1
	hold := make(chan struct{})
	_, ts := startT(t, cfg, hooks{hold: hold})
	defer close(hold)

	var h struct {
		Status  string `json:"status"`
		Tenants int    `json:"tenants"`
	}
	if code := call(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = HTTP %d %+v", code, h)
	}
	var b ledger.Balance
	if code := call(t, "POST", ts.URL+"/v1/tenants",
		map[string]any{"tenant": "carol", "epsilon": 2.0}, &b); code != http.StatusCreated {
		t.Fatalf("create tenant: HTTP %d", code)
	}
	if b.EpsTotal != 2 || b.DelTotal != 1e-6 { // δ defaulted
		t.Fatalf("created balance %+v", b)
	}
	var e errEnvelope
	if code := call(t, "POST", ts.URL+"/v1/tenants",
		map[string]any{"tenant": "carol", "epsilon": 2.0}, &e); code != http.StatusConflict || e.Error.Code != "tenant_exists" {
		t.Fatalf("duplicate tenant = HTTP %d %q", code, e.Error.Code)
	}
	var list struct {
		Tenants []ledger.Balance `json:"tenants"`
	}
	if code := call(t, "GET", ts.URL+"/v1/tenants", nil, &list); code != http.StatusOK || len(list.Tenants) != 1 {
		t.Fatalf("list tenants = HTTP %d %+v", code, list)
	}
	if code := call(t, "GET", ts.URL+"/v1/tenants/nobody/budget", nil, &e); code != http.StatusNotFound {
		t.Fatalf("unknown budget: HTTP %d", code)
	}
	if code := call(t, "GET", ts.URL+"/v1/queries/nope", nil, &e); code != http.StatusNotFound || e.Error.Code != "no_job" {
		t.Fatalf("unknown job = HTTP %d %q", code, e.Error.Code)
	}
	if code := call(t, "GET", fmt.Sprintf("%s/v1/queries?tenant=", ts.URL), nil, &e); code != http.StatusBadRequest {
		t.Fatalf("listing without tenant: HTTP %d", code)
	}
}

// TestRunPanicFailsTheJobAlone: a run that panics fails its own job with
// execution_error, logs the panic value and its stack, and releases the
// reservation; the daemon keeps serving, and the next job completes.
func TestRunPanicFailsTheJobAlone(t *testing.T) {
	cfg := testConfig(t)
	cfg.Tenants = []TenantSpec{{ID: "acme", Epsilon: 10, Delta: 1e-6}}
	var (
		logMu sync.Mutex
		logs  []string
	)
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		defer logMu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	hold := make(chan struct{})
	s, ts := startT(t, cfg, hooks{hold: hold})
	// Swapped while the executors are held; the hold's close orders it
	// before their first read. Only the first run panics.
	var once sync.Once
	s.run = func(ctx context.Context, j *Job, a *runtime.Admitted) (*runtime.Result, string, error) {
		once.Do(func() { panic("injected run panic") })
		return s.runDeployment(ctx, j, a)
	}
	close(hold)

	j, code, _ := submit(t, ts.URL, "acme", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if f := waitTerminal(t, ts.URL, j.ID); f.State != JobFailed || f.ErrorCode != "execution_error" {
		t.Fatalf("panicking job: state %s code %q (%s), want failed execution_error", f.State, f.ErrorCode, f.Error)
	}
	if b := budget(t, ts.URL, "acme"); b.EpsReserved != 0 || b.EpsSpent != 0 {
		t.Fatalf("after the panic: balance %+v, want nothing reserved or spent", b)
	}
	logMu.Lock()
	logged := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(logged, "injected run panic") || !strings.Contains(logged, "goroutine") {
		t.Errorf("log %q lacks the panic value and its stack", logged)
	}

	j, code, _ = submit(t, ts.URL, "acme", countQuery)
	if code != http.StatusAccepted {
		t.Fatalf("second submit: HTTP %d", code)
	}
	if f := waitTerminal(t, ts.URL, j.ID); f.State != JobDone {
		t.Fatalf("job after the panic: state %s (%s), want done", f.State, f.Error)
	}
}
