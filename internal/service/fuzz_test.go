package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arboretum/internal/queries"
)

// FuzzSubmit drives the gateway's submit handler, in process, with arbitrary
// request bodies: no response is a 5xx, every refusal carries a typed error
// code, and only a 202 moves the tenant's reserved ε — by exactly the job's
// certified ε. An accepted job runs to its end before the next body, and a
// failed one carries a typed code too. The executor is held until the
// reservation has been read, so a job that fails fast cannot release it
// first.
func FuzzSubmit(f *testing.F) {
	body := func(src string) []byte {
		b, err := json.Marshal(map[string]string{"tenant": "alice", "source": src})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	for _, q := range queries.All {
		f.Add(body(q.Source))
	}
	f.Add(body("aggr = sum(db);\nfor i = 0 to 3 do\n  s[i] = aggr[i] * aggr[0];\nendfor;\nw = em(s, 1.0);\noutput(w);"))
	// The auction priced so high that its em's Gumbel scale leaves Q30.16:
	// admitted, then failed closed.
	f.Add(body(strings.Replace(queries.Auction.Source, "p * atleast[p]", "p * 10000000 * atleast[p]", 1)))
	f.Add([]byte(`{"tenant": "alice", "source": `))
	f.Add([]byte(`{"tenant": "alice"}`))
	f.Add([]byte("not json"))

	cfg := Config{
		LedgerPath: filepath.Join(f.TempDir(), "ledger"),
		Tenants:    []TenantSpec{{ID: "alice", Epsilon: 1e12, Delta: 1}},
		Devices:    16, Categories: 4, CommitteeSize: 3, Seed: 1,
		JobWorkers: 1, JobTimeout: 10 * time.Second,
		Logf: func(string, ...any) {},
	}
	hold := make(chan struct{})
	s, err := newServer(cfg, hooks{hold: hold})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	do := func(t *testing.T, method, path string, data []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data)))
		if rec.Code >= 500 {
			t.Fatalf("%s %s %q: HTTP %d %s", method, path, data, rec.Code, rec.Body)
		}
		return rec
	}
	reserved := func(t *testing.T) float64 {
		b, ok := s.ledger.Balance("alice")
		if !ok {
			t.Fatal("tenant alice lost")
		}
		return b.EpsReserved
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		before := reserved(t)
		rec := do(t, "POST", "/v1/queries", data)
		after := reserved(t)
		if rec.Code == http.StatusAccepted {
			hold <- struct{}{} // the job may run now
		}
		if rec.Code != http.StatusAccepted {
			var e errEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code == "" {
				t.Fatalf("%q: HTTP %d without a typed code: %s", data, rec.Code, rec.Body)
			}
			if after != before {
				t.Fatalf("%q: refused with %s, yet reserved ε moved %g → %g", data, e.Error.Code, before, after)
			}
			return
		}
		var j Job
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		if math.Abs(after-before-j.Epsilon) > 1e-9*math.Max(1, after) {
			t.Fatalf("%q: accepted at ε = %g, reserved ε moved %g → %g", data, j.Epsilon, before, after)
		}
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if err := json.Unmarshal(do(t, "GET", "/v1/queries/"+j.ID, nil).Body.Bytes(), &j); err != nil {
				t.Fatal(err)
			}
			if j.State == JobDone || j.State == JobCanceled || j.State == JobFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%q: job %s still %s", data, j.ID, j.State)
			}
		}
		if j.State == JobFailed && j.ErrorCode == "" {
			t.Fatalf("%q: job failed without a typed code: %s", data, j.Error)
		}
	})
}
