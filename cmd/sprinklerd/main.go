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
//	           [-job-slots N]
//	           [-cache-max-bytes N] [-sweep-interval 1m]
//	           [-log-level info] [-log-format text|json] [-node NAME]
//	           [-trace-spans N] [-pprof-listen ADDR]
//
// Cluster mode (see the README's Cluster section): with -coordinator the
// daemon leases each study's points to the -workers fleet, one point's
// replicas per lease (a point is cut into contiguous replica ranges when a
// batch has fewer points left than -par), and each worker streams the
// replicas back as they finish. A lease's deadline is -lease per replica it
// carries. The coordinator retries every failed lease that a worker did not
// refuse with a 4xx, with capped backoff scaled by -heartbeat (the rule
// the sweep client follows too), keeps every replica a dead worker
// delivered and re-dispatches the rest to healthy peers, and — with every
// worker down — degrades to local execution (reported by /healthz and
// /metrics). Job counters on /metrics count replicas; the dispatch-latency
// histogram counts leases. A worker is just a plain daemon; -join makes it announce
// itself to a coordinator and re-register every -heartbeat, so fleets can
// also grow dynamically. The coordinator places each lease on the worker
// with the fewest of its own outstanding leases, counted when the lease is
// placed. A lease that has gone past the P95 of per-replica latency
// without delivering a replica is raced by a backup for its remaining
// replicas on an idle worker (nothing outstanding), so a straggler's
// replicas finish elsewhere without queueing behind other work. -job-slots
// bounds concurrent replica simulations per worker.
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
// -grace expires: exit status 0, or 1 on a runtime error, or 2 on a bad flag
// or URL. The "listening" log line names the bound address (-listen :0).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
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

// newLogger builds the daemon's structured logger on w from the -log-level
// and -log-format flags.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, ok := map[string]slog.Level{"debug": slog.LevelDebug, "": slog.LevelInfo, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError}[strings.ToLower(level)]
	if !ok {
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stderr))
}

// run is the whole daemon: it serves until ctx is canceled or SIGINT or
// SIGTERM arrives, drains, and returns the exit status; logs go to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sprinklerd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:8356", "HTTP listen address (port 0 picks a free port)")
	cacheDir := fs.String("cache", "sprinklerd-cache", "content-addressed result cache directory (the daemon's only durable state)")
	par := fs.Int("par", 0, "per-study worker parallelism (default GOMAXPROCS)")
	grace := fs.Duration("grace", 30*time.Second, "shutdown grace period for draining studies")
	coordinator := fs.Bool("coordinator", false, "run as a cluster coordinator, dispatching replica jobs to -workers")
	workers := fs.String("workers", "", "comma-separated worker base URLs (implies -coordinator)")
	lease := fs.Duration("lease", 2*time.Minute, "lease per replica: a lease carrying n replicas must finish within n times it")
	heartbeat := fs.Duration("heartbeat", time.Second, "worker probe and re-registration interval; also scales the coordinator's retry backoff (interval/20, doubling, capped at 2x interval)")
	join := fs.String("join", "", "coordinator URL to register with every -heartbeat (worker mode)")
	advertise := fs.String("advertise", "", "base URL this worker advertises to the coordinator (default http://<bound listen address>)")
	jobSlots := fs.Int("job-slots", 0, "concurrent replica simulations for cluster jobs on this worker; surplus replicas queue (default GOMAXPROCS)")
	cacheMax := fs.Int64("cache-max-bytes", 0, "bound the result cache on disk; 0 = unbounded")
	sweepInterval := fs.Duration("sweep-interval", time.Minute, "how often the cache sweeper enforces -cache-max-bytes")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
	logFormat := fs.String("log-format", "text", "log output format: text or json (one object per line)")
	nodeName := fs.String("node", "", "node name stamped on trace spans and log lines (default: the role)")
	traceSpans := fs.Int("trace-spans", 0, "bound the in-memory trace journal (ring; default 16384 spans, negative disables tracing)")
	pprofListen := fs.String("pprof-listen", "", "serve net/http/pprof on this extra address (empty disables)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	lg, err := newLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(stderr, "sprinklerd:", err)
		return 2
	}
	fatal := func(err error) int {
		lg.Error("fatal", "err", err)
		return 1
	}

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	for _, u := range append(urls, *join, *advertise) {
		if err := cluster.CheckURL(u); u != "" && err != nil {
			fmt.Fprintln(stderr, "sprinklerd:", err)
			return 2
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fatal(err)
	}
	defer ln.Close()
	addr := "http://" + ln.Addr().String()
	var pln net.Listener
	if *pprofListen != "" {
		if pln, err = net.Listen("tcp", *pprofListen); err != nil {
			return fatal(err)
		}
		defer pln.Close()
	}

	// Caught before the address is announced: a SIGTERM after it drains.
	// Probes and re-registration run on this context, so they stop with
	// the studies.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	mode := "standalone"
	var coord *cluster.Coordinator
	switch {
	case *coordinator || *workers != "":
		mode = "coordinator"
		coord = cluster.New(cluster.Options{
			Workers:           urls,
			Lease:             *lease,
			HeartbeatInterval: *heartbeat,
			Speculate:         true,
		})
	case *join != "":
		mode = "worker"
	}

	srv, err := service.New(service.Options{
		CacheDir:      *cacheDir,
		Parallelism:   *par,
		JobSlots:      *jobSlots,
		Logger:        lg,
		Node:          *nodeName,
		Role:          mode,
		TraceSpans:    *traceSpans,
		Cluster:       coord,
		CacheMaxBytes: *cacheMax,
		SweepInterval: *sweepInterval,
	})
	if err != nil {
		return fatal(err)
	}
	if coord != nil {
		// Started after service.New has installed the daemon's logger,
		// counters and dispatch histogram on it.
		coord.Start(ctx)
	}

	if *join != "" {
		self := *advertise
		if self == "" {
			self = addr
		}
		go srv.JoinCluster(ctx, strings.TrimSuffix(*join, "/"), self, *heartbeat)
	}

	if pln != nil {
		// net/http/pprof registered its handlers on the DefaultServeMux,
		// which nothing else serves: profiling lives on its own listener,
		// never on the API address.
		pprofServer := &http.Server{}
		defer pprofServer.Close()
		lg.Info("pprof listening", "addr", "http://"+pln.Addr().String()+"/debug/pprof/")
		go func() {
			if err := pprofServer.Serve(pln); err != http.ErrServerClosed {
				lg.Error("pprof listener failed", "err", err)
			}
		}()
	}

	httpServer := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	lg.Info("listening", "addr", addr, "cache", *cacheDir, "mode", mode)
	go func() { errCh <- httpServer.Serve(ln) }()
	select {
	case err := <-errCh:
		return fatal(err)
	case <-ctx.Done():
	}

	lg.Info("shutting down: draining studies", "grace", grace.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	drainErr := srv.Shutdown(shutCtx)
	if err := httpServer.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		lg.Error("shutdown", "err", drainErr)
		return 1
	}
	lg.Info("shutdown complete; studies drained")
	return 0
}
