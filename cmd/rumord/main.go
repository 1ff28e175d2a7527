// Command rumord is the rumor-spreading simulation service: a long-lived
// daemon that accepts declarative Scenarios over HTTP, schedules them onto
// the deterministic Monte-Carlo engine under a shared worker budget, and
// caches ensemble results by content hash — an equivalent resubmission
// (same canonical scenario, seed and reps, any JSON spelling) is answered
// instantly with byte-identical results.
//
// Endpoints:
//
//	POST   /v1/runs                submit {"scenario": {...}, "reps": N, "seed": S}
//	GET    /v1/runs                list jobs
//	GET    /v1/runs/{id}           job status + summary when done
//	DELETE /v1/runs/{id}           cancel a queued or running job
//	GET    /v1/runs/{id}/trace     flight-recorder timeline of a run's phases
//	POST   /v1/sweeps              submit one parameter grid as a native sweep
//	GET    /v1/sweeps              list sweeps
//	GET    /v1/sweeps/{id}         sweep status + per-cell aggregate table
//	GET    /v1/sweeps/{id}/events  SSE stream of per-cell summaries
//	DELETE /v1/sweeps/{id}         cancel a sweep's unfinished cells
//	GET    /v1/scenarios/families  the network family registry
//	GET    /healthz                liveness, uptime and per-subsystem readiness
//	GET    /metrics                counters (JSON, or Prometheus text via Accept)
//
// The same binary is every role of a cluster. With -cluster the daemon
// serves the identical API but executes nothing itself: runs are sharded
// into repetition-range leases and handed to workers over four extra
// endpoints (POST /v1/cluster/{register,lease,heartbeat,result}). With
// -worker -join <url> the daemon is such a worker: it registers, executes
// leased ranges on the local engine, and streams partial results back.
// Results are byte-identical across all three roles — the distributed merge
// is exact.
//
// Example:
//
//	rumord -addr :8080 -budget 8 &
//	curl -s localhost:8080/v1/runs -d \
//	  '{"scenario":{"network":{"family":"clique","params":{"n":512}}},"reps":64,"seed":1}'
//
// Cluster:
//
//	rumord -cluster -addr :8080 &
//	rumord -worker -join http://localhost:8080 &
//	rumord -worker -join http://localhost:8080 &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynamicrumor/internal/buildinfo"
	"dynamicrumor/internal/cluster"
	"dynamicrumor/internal/faults"
	"dynamicrumor/internal/obs"
	"dynamicrumor/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rumord:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rumord", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	budget := fs.Int("budget", 0,
		"total engine worker goroutines shared across all running jobs (0 means GOMAXPROCS); a -worker's engine parallelism")
	queueLimit := fs.Int("queue", 256, "maximum queued jobs before submissions get 429")
	cacheLimit := fs.Int("cache", 1024, "maximum cached run summaries")
	maxReps := fs.Int("max-reps", 10_000_000, "maximum repetitions a single job may request")
	historyLimit := fs.Int("history", 4096, "finished job records retained (oldest forgotten first)")
	streamDefault := fs.Int("stream-default", 0,
		"async stream discipline for scenarios that don't pin one: 0 leaves scenarios untouched, 1 pins the frozen v1, 2 the faster statistically-equivalent v2")
	rate := fs.Float64("rate", 0,
		"per-client work-creating submissions per second before 429 + Retry-After; cache hits and read endpoints are exempt (0 disables rate limiting)")
	burst := fs.Int("burst", 0,
		"per-client token-bucket burst capacity for -rate (0 means twice the rate, at least 1)")
	clusterMode := fs.Bool("cluster", false,
		"coordinate a worker cluster: serve the same API but shard runs across joined -worker processes instead of executing locally")
	workerMode := fs.Bool("worker", false, "run as a cluster worker executing leased repetition ranges (requires -join)")
	join := fs.String("join", "", "coordinator base URL a worker connects to, e.g. http://host:8080 (implies -worker)")
	name := fs.String("name", "", "worker name reported to the coordinator (default: the hostname)")
	leaseTTL := fs.Duration("lease-ttl", 15*time.Second,
		"coordinator lease validity window; a worker silent past it has its leases reassigned")
	shardSize := fs.Int("shard", 0, "repetitions per worker lease (0 means automatic)")
	stateDir := fs.String("state-dir", "",
		"directory for the durable run ledger and coordinator journal; in-flight runs are re-adopted after a crash or restart (empty disables durability)")
	cacheDir := fs.String("cache-dir", "",
		"directory for the persistent result cache; completed summaries survive restarts and replay byte-identically (empty disables)")
	cacheBytes := fs.Int64("cache-bytes", 0,
		"persistent result cache size bound in bytes; least-recently-used entries are evicted beyond it (0 means 256 MiB)")
	chaos := fs.String("chaos", "",
		`fault plan injected at the cluster HTTP boundary, e.g. "seed=7,drop=0.05,error=0.1,delay=30ms:0.2" (testing only; empty disables)`)
	logFormat := fs.String("log-format", "text", `structured log encoding: "text" or "json"`)
	logLevel := fs.String("log-level", "info", `minimum log severity: "debug", "info", "warn" or "error"`)
	logRequests := fs.Bool("log-requests", false,
		"log one structured line per HTTP request (method, path, status, bytes, latency, trace ID)")
	debugAddr := fs.String("debug-addr", "",
		"separate listen address for net/http/pprof profiling endpoints, e.g. localhost:6060 (empty disables)")
	version := fs.Bool("version", false, "print the build version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println("rumord", buildinfo.Version())
		return nil
	}
	switch *streamDefault {
	case 0, 1, 2:
	default:
		return fmt.Errorf("-stream-default must be 0, 1 or 2, got %d", *streamDefault)
	}
	if *rate < 0 {
		return fmt.Errorf("-rate must be >= 0, got %v", *rate)
	}
	if *burst > 0 && *rate <= 0 {
		return errors.New("-burst requires -rate")
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	if *join != "" {
		*workerMode = true
	}
	if *workerMode && *clusterMode {
		return errors.New("-worker and -cluster are mutually exclusive")
	}
	if *debugAddr != "" {
		startDebugServer(*debugAddr, logger)
	}
	if *workerMode {
		if *join == "" {
			return errors.New("-worker requires -join <coordinator URL>")
		}
		return runWorker(*join, *name, *budget, logger)
	}

	// One histogram registry spans the service and the coordinator, so a
	// single /metrics scrape carries queue-wait, run, cache, HTTP and
	// cluster lease latencies together.
	reg := obs.NewRegistry()
	cfg := service.Config{
		Budget:        *budget,
		QueueLimit:    *queueLimit,
		CacheLimit:    *cacheLimit,
		MaxReps:       *maxReps,
		HistoryLimit:  *historyLimit,
		DefaultStream: *streamDefault,
		RatePerSec:    *rate,
		RateBurst:     *burst,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheBytes,
		StateDir:      *stateDir,
		Logger:        logger,
		Observe:       reg,
		LogRequests:   *logRequests,
	}
	var coord *cluster.Coordinator
	if *clusterMode {
		var err error
		coord, err = cluster.New(cluster.Config{
			LeaseTTL:  *leaseTTL,
			ShardSize: *shardSize,
			StateDir:  *stateDir,
			Logger:    logger,
			Observe:   reg,
		})
		if err != nil {
			return err
		}
		cfg.Backend = coord
	}
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	if coord != nil {
		// The service's ledger replay decides which runs are still owned; the
		// coordinator drops recovered journal state for any run the service no
		// longer knows, so a cancelled-then-crashed run is not resurrected.
		coord.RetainRecovered(svc.RecoveredKeys())
	}
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if coord != nil {
		// Mount the cluster endpoints behind the (usually zero) fault plan:
		// -chaos makes the coordinator/worker protocol misbehave on demand so
		// smoke tooling can exercise the recovery paths. The service API stays
		// clean — chaos targets the distributed boundary only.
		plan, err := faults.ParsePlan(*chaos)
		if err != nil {
			return err
		}
		inner := http.NewServeMux()
		coord.Mount(inner)
		mux.Handle("/v1/cluster/", faults.New(plan).Wrap(inner))
	} else if *chaos != "" {
		return errors.New("-chaos requires -cluster (it injects faults at the cluster boundary)")
	}
	server := &http.Server{Addr: *addr, Handler: mux}
	if coord != nil {
		// Answer held lease requests at once, so they do not hold up the
		// shutdown for their hold windows.
		server.RegisterOnShutdown(coord.ReleaseHeld)
	}

	errc := make(chan error, 1)
	go func() {
		role := "local"
		if coord != nil {
			role = "cluster coordinator"
		}
		logger.Info("rumord: listening", "version", buildinfo.Version(), "addr", *addr, "role", role)
		errc <- server.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		svc.Close()
		if coord != nil {
			coord.Close()
		}
		return err
	case sig := <-stop:
		logger.Info("rumord: shutting down", "signal", sig.String())
	}

	// Stop accepting connections first, then cancel in-flight jobs; each job
	// settles at its next repetition boundary.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("rumord: shutdown", "err", err)
	}
	svc.Close()
	if coord != nil {
		coord.Close()
	}
	return nil
}

// startDebugServer serves the net/http/pprof profiling endpoints on their own
// listener, kept off the service address so profiling access can be firewalled
// separately (typically bound to localhost).
func startDebugServer(addr string, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logger.Info("rumord: debug listener", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logger.Warn("rumord: debug listener failed", "addr", addr, "err", err)
		}
	}()
}

// runWorker joins a coordinator and executes leased ranges until terminated.
func runWorker(join, name string, cpus int, logger *slog.Logger) error {
	if name == "" {
		name, _ = os.Hostname()
	}
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: join,
		Name:        name,
		CPUs:        cpus,
		Logger:      logger,
	})
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	logger.Info("rumord: worker joining", "version", buildinfo.Version(), "worker", name, "coordinator", join)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	logger.Info("rumord: worker shut down")
	return nil
}
