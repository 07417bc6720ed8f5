// Command sprinklerd is the study-serving daemon: a long-running HTTP
// service that accepts declarative study specs (the same JSON cmd/sweep
// runs), executes them on a worker pool backed by a content-addressed
// result cache, streams per-point progress, and serves aggregated results
// and renderings. A point is simulated at most once per cache lifetime:
// overlapping studies share points, and resubmitting a computed spec is a
// pure cache read with zero simulation slots executed.
//
// Usage:
//
//	sprinklerd [-listen 127.0.0.1:8356] [-cache sprinklerd-cache] [-par N]
//	           [-grace 30s]
//	           [-coordinator] [-workers URL,URL,...] [-lease 2m]
//	           [-heartbeat 1s] [-join URL] [-advertise URL]
//	           [-job-slots N] [-chaos-job-delay D]
//	           [-cache-max-bytes N] [-sweep-interval 1m]
//	           [-log-level info] [-log-format text|json] [-node NAME]
//	           [-trace-spans N] [-pprof-listen ADDR]
//
// Cluster mode (see the README's Cluster section): with -coordinator the
// daemon leases each study's points to the -workers fleet, one point's
// replicas per lease (a point is cut into contiguous replica ranges when a
// batch has fewer points left than -par), and each worker streams the
// replicas back as they finish. A lease's deadline is -lease per replica it
// carries. The coordinator retries transient failures with capped backoff,
// keeps every replica a dead worker delivered and re-dispatches the rest to
// healthy peers, and — with every worker down — degrades to local
// execution (reported by /healthz and /metrics). Job counters on /metrics
// count replicas; the dispatch-latency histogram counts leases. A worker
// is just a plain daemon; -join makes it announce itself to a coordinator
// and re-register every -heartbeat, so fleets can also grow dynamically.
// The coordinator places leases by its own count of outstanding leases per
// worker (power-of-two-choices). A lease that has gone past the P95 of
// per-replica latency without delivering a replica is raced by a backup
// for its remaining replicas on an idle worker (nothing outstanding), so a
// straggler's replicas finish elsewhere without queueing behind other
// work. -job-slots bounds concurrent replica simulations per worker;
// -chaos-job-delay stalls every replica a worker simulates (straggler
// chaos testing).
//
// With -cache-max-bytes the result cache is bounded on disk: a background
// sweeper evicts the least recently used entries every -sweep-interval
// until the cache fits.
//
// Observability (see the README's Observability section): logs are
// structured (log/slog) with study/job/worker ids as attributes —
// -log-format json emits one JSON object per line; -log-level gates
// verbosity. Every job dispatched for a study is traced end to end and
// served at GET /api/v1/trace/{study} (-trace-spans bounds the journal;
// negative disables). -pprof-listen serves net/http/pprof on a separate
// listener.
//
// Endpoints (see README for the full API):
//
//	POST /api/v1/studies            submit a spec
//	GET  /api/v1/studies/{id}       status; /events streams progress (SSE);
//	     /results and /render serve the output; POST /cancel stops it
//	POST /api/v1/jobs               serve one lease (a range of one point's
//	                                replicas), streamed back as NDJSON
//	GET  /api/v1/cas/{key}          raw cache entry (peer cache fill)
//	POST /api/v1/cluster/register   worker registration
//	GET  /api/v1/catalog            registered architectures/workloads/
//	     scenarios with their option schemas
//	GET  /healthz, GET /metrics     liveness ("ok" or "degraded"),
//	     Prometheus-style counters and latency histograms
//	GET  /api/v1/perf               daemon-wide and per-study work counters
//	GET  /api/v1/trace/{study}      merged job trace timeline
//	     (?format=chrome for Perfetto)
//	GET  /api/v1/version            build identity (go version, VCS revision)
//
// On SIGINT/SIGTERM the daemon drains: running studies are canceled (their
// computed points are already in the cache, so resubmitting the same spec
// resumes them), and the process exits once everything has stopped or
// -grace expires.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only via -pprof-listen
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/service"
)

// newLogger builds the daemon's structured logger from the -log-level and
// -log-format flags.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "", "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func main() {
	listen := flag.String("listen", "127.0.0.1:8356", "HTTP listen address")
	cacheDir := flag.String("cache", "sprinklerd-cache", "content-addressed result cache directory (the daemon's only durable state)")
	par := flag.Int("par", 0, "per-study worker parallelism (default GOMAXPROCS)")
	grace := flag.Duration("grace", 30*time.Second, "shutdown grace period for draining studies")
	coordinator := flag.Bool("coordinator", false, "run as a cluster coordinator, dispatching replica jobs to -workers")
	workers := flag.String("workers", "", "comma-separated worker base URLs (implies -coordinator)")
	lease := flag.Duration("lease", 2*time.Minute, "lease per replica: a lease carrying n replicas must finish within n times it")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker probe and re-registration interval")
	join := flag.String("join", "", "coordinator URL to register with every -heartbeat (worker mode)")
	advertise := flag.String("advertise", "", "base URL this worker advertises to the coordinator (default http://<listen>)")
	jobSlots := flag.Int("job-slots", 0, "concurrent replica simulations for cluster jobs on this worker; surplus replicas queue (default GOMAXPROCS)")
	chaosJobDelay := flag.Duration("chaos-job-delay", 0, "stall every replica a cluster job simulates by this much first (chaos: make this worker a straggler)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "bound the result cache on disk; 0 = unbounded")
	sweepInterval := flag.Duration("sweep-interval", time.Minute, "how often the cache sweeper enforces -cache-max-bytes")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := flag.String("log-format", "text", "log output format: text or json (one object per line)")
	nodeName := flag.String("node", "", "node name stamped on trace spans and log lines (default: the role)")
	traceSpans := flag.Int("trace-spans", 0, "bound the in-memory trace journal (ring; default 16384 spans, negative disables tracing)")
	pprofListen := flag.String("pprof-listen", "", "serve net/http/pprof on this extra address (empty disables)")
	flag.Parse()

	lg, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprinklerd:", err)
		os.Exit(2)
	}
	fatal := func(err error) {
		lg.Error("fatal", "err", err)
		os.Exit(1)
	}

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	for _, u := range append(urls, *join, *advertise) {
		if u == "" {
			continue
		}
		if err := cluster.CheckURL(u); err != nil {
			fmt.Fprintln(os.Stderr, "sprinklerd:", err)
			os.Exit(2)
		}
	}

	ctx, stopTasks := context.WithCancel(context.Background())
	defer stopTasks()

	mode := "standalone"
	switch {
	case *coordinator || *workers != "":
		mode = "coordinator"
	case *join != "":
		mode = "worker"
	}

	var coord *cluster.Coordinator
	if *coordinator || *workers != "" {
		coord = cluster.New(cluster.Options{
			Workers:           urls,
			Lease:             *lease,
			HeartbeatInterval: *heartbeat,
			Speculate:         true,
		})
	}

	srv, err := service.New(service.Options{
		CacheDir:      *cacheDir,
		Parallelism:   *par,
		JobSlots:      *jobSlots,
		JobDelay:      *chaosJobDelay,
		Logger:        lg,
		Node:          *nodeName,
		Role:          mode,
		TraceSpans:    *traceSpans,
		Cluster:       coord,
		CacheMaxBytes: *cacheMax,
		SweepInterval: *sweepInterval,
	})
	if err != nil {
		fatal(err)
	}
	if coord != nil {
		// Started after service.New has installed the daemon's logger,
		// counters and dispatch histogram on it.
		coord.Start(ctx)
	}

	if *join != "" {
		self := *advertise
		if self == "" {
			self = "http://" + *listen
		}
		go srv.JoinCluster(ctx, strings.TrimSuffix(*join, "/"), self, *heartbeat)
	}

	if *pprofListen != "" {
		// net/http/pprof registered its handlers on the DefaultServeMux,
		// which nothing else serves: profiling lives on its own listener,
		// never on the API address.
		go func() {
			lg.Info("pprof listening", "addr", "http://"+*pprofListen+"/debug/pprof/")
			if err := http.ListenAndServe(*pprofListen, nil); err != nil {
				lg.Error("pprof listener failed", "err", err)
			}
		}()
	}

	httpServer := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		lg.Info("listening", "addr", "http://"+*listen, "cache", *cacheDir, "mode", mode)
		errCh <- httpServer.ListenAndServe()
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		fatal(err)
	case <-sigCtx.Done():
	}

	lg.Info("shutting down: draining studies", "grace", grace.String())
	stopTasks() // probes and re-registration stop with the studies
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	drainErr := srv.Shutdown(shutCtx)
	if err := httpServer.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		lg.Error("shutdown", "err", drainErr)
		os.Exit(1)
	}
	lg.Info("shutdown complete; studies drained")
}
