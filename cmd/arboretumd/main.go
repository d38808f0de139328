// Command arboretumd is the Arboretum analyst gateway: a long-lived,
// multi-tenant HTTP server that accepts federated-analytics queries,
// certifies them as differentially private, meters each analyst's (ε, δ)
// privacy budget across queries in a durable ledger, and executes admitted
// jobs asynchronously on simulated deployments.
//
// Usage:
//
//	arboretumd [-addr :8750] [-ledger arboretumd.ledger] \
//	           [-tenants "alice=5,bob=3"] \
//	           [-devices 96] [-categories 8] [-committee 5] [-seed 1] \
//	           [-workers 0] [-job-workers 2] [-queue 64] \
//	           [-rate 5] [-burst 10] [-max-inflight 4] \
//	           [-job-timeout 0] [-retain-jobs 10000] [-drain-timeout 30s] \
//	           [-faults ""] [-secure-noise]
//
// The API (submit/status/result/cancel, tenant budgets, /healthz) is
// documented in docs/SERVICE.md; -tenants seeds budgets idempotently
// ("id=ε" or "id=ε:δ" entries, existing tenants keep their history), and
// -faults applies a default fault-injection schedule to every job's
// deployment (docs/FAULTS.md). The daemon prints "listening on ADDR" once
// it serves; -addr :0 picks a free port (scripts/loadtest.sh relies on
// both).
//
// Jobs are crash-resumable: -ledger is the daemon's one durable file, every
// lifecycle transition is a record in it before it is observable, and a
// restarted daemon re-executes the jobs the log leaves in flight
// deterministically against their still-held reservations instead of
// dropping them. On SIGINT or SIGTERM the daemon stops accepting work, gives
// running jobs up to -drain-timeout to finish, leaves the rest in the log
// for the next start, and closes the ledger.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arboretum/internal/faults"
	"arboretum/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arboretumd:", err)
		os.Exit(1)
	}
}

// parseTenants parses the -tenants flag: comma-separated "id=ε" or
// "id=ε:δ" entries.
func parseTenants(spec string) ([]service.TenantSpec, error) {
	var out []service.TenantSpec
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		id, budget, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || id == "" {
			return nil, fmt.Errorf("tenant entry %q: want id=epsilon or id=epsilon:delta", entry)
		}
		epsStr, delStr, hasDelta := strings.Cut(budget, ":")
		eps, err := strconv.ParseFloat(epsStr, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: epsilon %q: %v", id, epsStr, err)
		}
		del := 1e-6
		if hasDelta {
			if del, err = strconv.ParseFloat(delStr, 64); err != nil {
				return nil, fmt.Errorf("tenant %q: delta %q: %v", id, delStr, err)
			}
		}
		out = append(out, service.TenantSpec{ID: id, Epsilon: eps, Delta: del})
	}
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("arboretumd", flag.ExitOnError)
	addr := fs.String("addr", ":8750", "listen address (:0 picks a free port)")
	ledgerPath := fs.String("ledger", "arboretumd.ledger", "the daemon's durable file: the WAL of tenant budgets and job lifecycles")
	tenants := fs.String("tenants", "", `tenants to seed, e.g. "alice=5,bob=3" or "alice=5:1e-6"`)
	devices := fs.Int("devices", 96, "simulated devices per job deployment")
	categories := fs.Int("categories", 8, "one-hot categories per device input")
	committee := fs.Int("committee", 5, "committee size")
	seed := fs.Int64("seed", 1, "base seed; job j runs on seed+j")
	workers := fs.Int("workers", 0, "per-job runtime worker pool (0 = GOMAXPROCS)")
	jobWorkers := fs.Int("job-workers", 2, "jobs executing concurrently")
	queue := fs.Int("queue", 64, "submit queue depth (full queue = 503)")
	rate := fs.Float64("rate", 5, "per-tenant sustained submissions per second (0 = unlimited)")
	burst := fs.Int("burst", 10, "per-tenant submission burst")
	maxInflight := fs.Int("max-inflight", 4, "per-tenant queued+running job cap (0 = unlimited)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job execution deadline (0 = none; submissions may override)")
	retainJobs := fs.Int("retain-jobs", 0, "terminal jobs kept queryable before eviction (0 = default 10000)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for running jobs (negative = forever)")
	faultSpec := fs.String("faults", "", `default fault schedule per job, e.g. "seed=7,upload=0.1" (docs/FAULTS.md)`)
	ledgerFaults := fs.String("ledger-faults", "", `WAL crash schedule for chaos testing, e.g. "seed=1,wal=0.01"`)
	daemonFaults := fs.String("daemon-faults", "", `daemon death schedule for chaos testing, e.g. "seed=1,daemon=0.01" or "daemon@3.2"`)
	secureNoise := fs.Bool("secure-noise", false, "draw committee noise from crypto/rand (production)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tens, err := parseTenants(*tenants)
	if err != nil {
		return err
	}
	crashPlan, err := faults.Parse(*ledgerFaults)
	if err != nil {
		return fmt.Errorf("-ledger-faults: %w", err)
	}
	daemonPlan, err := faults.Parse(*daemonFaults)
	if err != nil {
		return fmt.Errorf("-daemon-faults: %w", err)
	}
	srv, err := service.New(service.Config{
		LedgerPath:    *ledgerPath,
		Tenants:       tens,
		Devices:       *devices,
		Categories:    *categories,
		CommitteeSize: *committee,
		Seed:          *seed,
		SecureNoise:   *secureNoise,
		Workers:       *workers,
		JobWorkers:    *jobWorkers,
		QueueDepth:    *queue,
		Rate:          *rate,
		Burst:         *burst,
		MaxInFlight:   *maxInflight,
		JobTimeout:    *jobTimeout,
		RetainJobs:    *retainJobs,
		FaultSpec:     *faultSpec,
		LedgerFaults:  crashPlan,
		DaemonFaults:  daemonPlan,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return errors.Join(err, srv.Close())
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	// The sentinel line scripts wait for; with -addr :0 it is also how they
	// learn the port.
	fmt.Printf("arboretumd: listening on %s (ledger %s)\n", ln.Addr(), *ledgerPath)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return errors.Join(err, srv.Close())
	case <-ctx.Done():
	}
	fmt.Println("arboretumd: shutting down")
	// Drain first: admission flips to 503 shutting_down, running jobs get up
	// to -drain-timeout, and whatever remains stays in the ledger for the
	// next start. Then close the HTTP front end (read-only requests keep working
	// during the drain).
	drainErr := srv.Drain(*drainTimeout)
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) && drainErr == nil {
		drainErr = err
	}
	return drainErr
}
