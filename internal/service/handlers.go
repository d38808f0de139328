package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"arboretum/internal/faults"
	"arboretum/internal/ledger"
	"arboretum/internal/runtime"
)

// Sentinel errors for job-store admission and lifecycle outcomes; apiError
// maps each to its HTTP status and wire code (docs/SERVICE.md).
var (
	errQueueFull     = errors.New("service: job queue full")
	errShutdown      = errors.New("service: server is shutting down")
	errNotCancelable = errors.New("service: job is not queued")
)

// apiError is the error envelope every non-2xx response carries.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// writeJSON encodes v with status; encoding failures are logged, not
// recoverable mid-response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.cfg.Logf("service: encode response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.writeJSON(w, status, map[string]apiError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// Handler returns the gateway's HTTP API (the /v1 surface of
// docs/SERVICE.md plus /healthz).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/health", s.handleHealth)
	mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("GET /v1/tenants/{id}/budget", s.handleBudget)
	mux.HandleFunc("POST /v1/queries", s.handleSubmit)
	mux.HandleFunc("GET /v1/queries", s.handleListJobs)
	mux.HandleFunc("GET /v1/queries/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/queries/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleCancel)
	return mux
}

// handleHealth reports liveness plus the gauges an operator watches: job
// counts by state, queue occupancy, per-tenant saturation, the ledger's
// position, size and lag (records appended since the last compaction),
// recovery and retention counters, uptime.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() || s.crashed.Load() {
		status = "draining"
	}
	// Compaction renumbers the log, so a read racing one can see the old
	// mark with the new sequence.
	seq, lag := s.ledger.Seq(), uint64(0)
	if last := s.lastCompact.Load(); seq > last {
		lag = seq - last
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":              status,
		"uptime_seconds":      time.Since(s.started).Seconds(),
		"jobs":                s.store.counts(),
		"queue_len":           len(s.store.queue),
		"queue_cap":           cap(s.store.queue),
		"in_flight_by_tenant": s.store.inFlightByTenant(),
		"ledger_path":         s.ledger.Path(),
		"ledger_seq":          seq,
		"ledger_bytes":        s.ledger.Size(),
		"ledger_lag":          lag,
		"recovered_jobs":      s.recovered,
		"expired_jobs":        s.store.evictedCount(),
		"tenants":             len(s.ledger.Tenants()),
	})
}

// createTenantRequest is the POST /v1/tenants body.
type createTenantRequest struct {
	Tenant  string  `json:"tenant"`
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// maxBody bounds the bytes a request body may carry. A tenant or a query
// takes a few hundred, and a query's source is parsed, so a body is read
// only up to here.
const maxBody = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBody bytes. On
// failure it writes the refusal, 413 too_large past the bound and 400
// bad_request otherwise, and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeError(w, http.StatusRequestEntityTooLarge, "too_large", "request body exceeds %d bytes", maxBody)
	default:
		s.writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON: %v", err)
	}
	return false
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req createTenantRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Delta == 0 {
		req.Delta = 1e-6
	}
	if err := s.ledger.CreateTenant(req.Tenant, req.Epsilon, req.Delta); err != nil {
		switch {
		case errors.Is(err, ledger.ErrTenantExists):
			s.writeError(w, http.StatusConflict, "tenant_exists", "%v", err)
		case errors.Is(err, ledger.ErrCrashed):
			s.logLost("create "+req.Tenant, err)
			s.writeError(w, http.StatusInternalServerError, "ledger_error", "%v", err)
		default:
			s.writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
		}
		return
	}
	b, _ := s.ledger.Balance(req.Tenant)
	s.writeJSON(w, http.StatusCreated, b)
}

func (s *Server) handleListTenants(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"tenants": s.ledger.Tenants()})
}

func (s *Server) handleBudget(w http.ResponseWriter, r *http.Request) {
	b, ok := s.ledger.Balance(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "no_tenant", "unknown tenant %q", r.PathValue("id"))
		return
	}
	s.writeJSON(w, http.StatusOK, b)
}

// submitRequest is the POST /v1/queries body. Faults optionally overrides
// the server's default fault-injection schedule for this job's deployment
// (chaos testing a live gateway; docs/FAULTS.md).
type submitRequest struct {
	Tenant string `json:"tenant"`
	Source string `json:"source"`
	Faults string `json:"faults,omitempty"`
	// TimeoutSeconds overrides the server's Config.JobTimeout for this job
	// (0 = server default; the override may extend as well as shorten).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// handleSubmit is the admission path: rate limit → queue slot → admit and
// plan → reserve, and the reserve record is the submission. The slot comes
// first, so a full queue refuses while refusing is free, and every refusal
// after it returns the slot. The job carries its admission (runtime.Admit)
// to its executor, so the certificate that prices the reservation is the one
// the run charges. The ledger checks the balance before it writes, so a query
// that exceeds the remaining budget is rejected here with a typed error,
// never executes and leaves no trace; and one record carries both the hold
// and everything a restarted daemon needs to run the job, so there is no
// moment at which one exists without the other.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Tenant == "" || req.Source == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "tenant and source are required")
		return
	}
	if req.TimeoutSeconds < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "timeout_seconds must be non-negative")
		return
	}
	if s.store.isClosed() || s.crashed.Load() {
		s.writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is shutting down")
		return
	}
	if _, ok := s.ledger.Balance(req.Tenant); !ok {
		s.writeError(w, http.StatusNotFound, "no_tenant", "unknown tenant %q", req.Tenant)
		return
	}
	if !s.limiter.Allow(req.Tenant) {
		s.writeError(w, http.StatusTooManyRequests, "rate_limited",
			"tenant %q exceeded %g submissions/s (burst %d)", req.Tenant, s.cfg.Rate, s.cfg.Burst)
		return
	}
	if m := s.cfg.MaxInFlight; m > 0 && s.store.inFlight(req.Tenant) >= m {
		s.writeError(w, http.StatusTooManyRequests, "too_many_inflight",
			"tenant %q already has %d queued or running jobs", req.Tenant, m)
		return
	}
	if _, err := faults.Parse(req.Faults); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", "fault spec: %v", err)
		return
	}
	if err := s.store.reserveSlot(); err != nil {
		if errors.Is(err, errShutdown) {
			s.writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is shutting down")
			return
		}
		s.writeError(w, http.StatusServiceUnavailable, "queue_full",
			"job queue is full (%d jobs)", cap(s.store.queue))
		return
	}
	admitted, err := runtime.Admit(req.Source, s.cfg.Devices, s.cfg.Categories)
	if err != nil {
		s.store.releaseSlot()
		code := "not_private"
		if errors.Is(err, runtime.ErrPlanSearchExceeded) {
			code = "not_plannable"
		}
		s.writeError(w, http.StatusBadRequest, code, "query not admitted: %v", err)
		return
	}
	id, err := newJobID()
	if err != nil {
		s.store.releaseSlot()
		s.writeError(w, http.StatusInternalServerError, "internal", "%v", err)
		return
	}
	j := &Job{
		ID: id, Tenant: req.Tenant, admitted: admitted,
		Epsilon: admitted.Certificate.Epsilon, Delta: admitted.Certificate.Delta,
		Submitted:      time.Now(),
		TimeoutSeconds: req.TimeoutSeconds,
		source:         req.Source, faults: req.Faults, seq: s.store.nextSeq(),
	}
	// Admission is this one append; the job enters the table and the queue
	// inside it.
	rec := &ledger.Record{
		Op: ledger.OpReserve, Tenant: j.Tenant, Job: j.ID,
		Eps: j.Epsilon, Del: j.Delta,
		Source: j.source, Faults: j.faults, JobSeq: j.seq, Timeout: j.TimeoutSeconds,
	}
	if err := s.ledger.Append(rec, func() { s.store.add(j) }); err != nil {
		s.store.releaseSlot()
		switch {
		case errors.Is(err, ledger.ErrBudgetExhausted):
			s.writeError(w, http.StatusConflict, "budget_exhausted", "%v", err)
		case errors.Is(err, ledger.ErrNoTenant):
			s.writeError(w, http.StatusNotFound, "no_tenant", "%v", err)
		case errors.Is(err, ledger.ErrCrashed) && s.draining.Load():
			// Lost the race with a drain that has already closed the ledger.
			s.writeError(w, http.StatusServiceUnavailable, "shutting_down", "server is shutting down")
		default:
			s.logLost(rec.WALDesc(), err)
			s.writeError(w, http.StatusInternalServerError, "ledger_error", "%v", err)
		}
		return
	}
	snap, _, _ := s.store.get(id)
	s.writeJSON(w, http.StatusAccepted, snap)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		s.writeError(w, http.StatusBadRequest, "bad_request", "query parameter tenant is required")
		return
	}
	jobs := s.store.byTenant(tenant)
	for i := range jobs {
		jobs[i].Outputs = nil // listing is status-only; fetch results individually
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok, expired := s.store.get(r.PathValue("id"))
	if !ok {
		if expired {
			s.writeError(w, http.StatusGone, "expired",
				"job %q expired from the retention window", r.PathValue("id"))
			return
		}
		s.writeError(w, http.StatusNotFound, "no_job", "unknown job %q", r.PathValue("id"))
		return
	}
	j.Outputs = nil // results only from the result endpoint
	j.FaultReport = ""
	s.writeJSON(w, http.StatusOK, j)
}

// handleResult returns the released outputs of a Done job; Failed and
// Canceled jobs report their terminal state, pending jobs 409 so clients
// can poll status and fetch the result exactly once. Jobs evicted past the
// retention window are 410 "expired".
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok, expired := s.store.get(r.PathValue("id"))
	if !ok {
		if expired {
			s.writeError(w, http.StatusGone, "expired",
				"job %q expired from the retention window", r.PathValue("id"))
			return
		}
		s.writeError(w, http.StatusNotFound, "no_job", "unknown job %q", r.PathValue("id"))
		return
	}
	switch j.State {
	case JobDone, JobFailed, JobCanceled:
		s.writeJSON(w, http.StatusOK, j)
	default:
		s.writeError(w, http.StatusConflict, "not_done", "job %s is %s", j.ID, j.State)
	}
}

// handleCancel cancels a queued job and releases its reservation: one
// release record, noted as a cancellation, which the ledger refuses for a
// job an executor has claimed. Running jobs are not cancelable (their
// vignettes may already have released DP noise — the budget outcome must
// come from the run); terminal jobs 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok, expired := s.store.get(id)
	switch {
	case expired:
		s.writeError(w, http.StatusGone, "expired", "job %q expired from the retention window", id)
		return
	case !ok:
		s.writeError(w, http.StatusNotFound, "no_job", "unknown job %q", id)
		return
	case j.State != JobQueued:
		s.writeError(w, http.StatusConflict, "not_cancelable", "job %s is %s", j.ID, j.State)
		return
	}
	rec := &ledger.Record{Op: ledger.OpRelease, Tenant: j.Tenant, Job: j.ID, Note: ledger.NoteCanceled}
	err := s.ledger.Append(rec, func() { j, _ = s.store.cancel(id) })
	switch {
	case err == nil:
		s.writeJSON(w, http.StatusOK, j)
	case errors.Is(err, ledger.ErrClaimed), errors.Is(err, ledger.ErrNoReservation):
		// Lost the race: an executor claimed the job, or it settled, since
		// the look above.
		j, _, _ = s.store.get(id)
		s.writeError(w, http.StatusConflict, "not_cancelable", "job %s is %s", j.ID, j.State)
	default:
		s.logLost(rec.WALDesc(), err)
		s.writeError(w, http.StatusInternalServerError, "ledger_error", "job not canceled: %v", err)
	}
}
