// Command sweep runs a declarative simulation study: a JSON Spec describing
// the full grid of algorithms x traffic kinds x loads x switch sizes x
// burstiness, with any number of independently-seeded replicas per point,
// aggregated into mean delay/throughput with 95% confidence intervals.
//
// With -out, finished points are appended to a JSONL checkpoint as they
// complete; re-running the same spec against the same file skips everything
// already recorded, so an interrupted sweep resumes where it stopped and
// ends byte-identical to an uninterrupted run.
//
// With -remote, the spec is submitted to a sprinklerd daemon instead of
// running locally: the daemon executes it against its content-addressed
// result cache (an already-computed spec costs zero simulation slots),
// progress streams back live, and the returned results are rendered by the
// exact same code as local mode — remote and local output are
// byte-identical for the same spec. The client rides through transient
// daemon trouble on its own: a failed request is retried, up to 4 attempts
// with capped backoff, unless the daemon answered 4xx or reported the study
// failed; a dropped progress stream reconnects where it left off (each
// event is printed exactly once), and if the daemon restarts mid-study the
// spec is resubmitted — the daemon's cache turns the replay into reads.
//
// Usage:
//
//	sweep -spec study.json [-out results.jsonl] [-csv|-trajcsv|-detail] [-quiet]
//	sweep -builtin fig6|fig7|fig5|table1|smoke|flashcrowd|adaptive-fig6|adaptive-smoke [-replicas 5] [-out ...]
//	sweep -algs sprinklers,foff -traffic uniform -ns 32 \
//	      -loads 0.5,0.9 -replicas 3 -slots 200000 [-out ...]
//	sweep -algs sprinklers -traffic uniform -scenarios flashcrowd -windows 12 ...
//	sweep -algs sprinklers -ns 32 -loads 0.9 -slots 100000 -detail
//	sweep -builtin flashcrowd -ns 16 -loads 0.8
//	sweep -remote http://127.0.0.1:8356 -builtin smoke
//	sweep -list
//
// sweep is the one command that simulates: a single point is a grid of
// one (-algs, -traffic, -ns, -loads and -bursts each naming one value),
// and -detail prints its delay, throughput and reordering row. The
// -algs, -traffic, -ns, -loads, -bursts and -scenarios flags override a
// -spec file or -builtin when set; -name and -kind only seed a flag-built
// spec.
//
// Algorithm, traffic and scenario names resolve through the shared
// registry (-list enumerates them with their option schemas), and every
// series flag accepts the shared series syntax "name" or
// "name:key=value,..." (e.g. -algs "pf:threshold=64,sprinklers" or
// -scenarios "flashcrowd:surge=0.95"). In a spec file an entry may carry
// typed options with an "as" label keeping two option variants distinct.
//
// Ctrl-C (or -timeout expiry) stops the study cleanly: everything recorded
// so far is already flushed to the -out checkpoint, the partial results are
// rendered, and the exit status is 2, as for a flag error (any other error
// exits 1) — resume by re-running the same spec with the same -out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/service"
	"sprinklers/internal/trace"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs or submits the study, and
// renders to stdout, returning the exit status. Canceling ctx stops the
// study the way Ctrl-C does.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "path to a JSON study spec")
	builtin := fs.String("builtin", "", "built-in study: fig6, fig7, fig5, table1, smoke, flashcrowd, adaptive-fig6, adaptive-smoke")
	name := fs.String("name", "", "study name (flag-built specs)")
	kind := fs.String("kind", "", "study kind: sim, adaptive, markov, bound (flag-built specs; default sim)")
	algsFlag := fs.String("algs", "", experiment.FormatSeriesHelp("algorithm")+`, or "all"/"paper" (default paper for flag-built specs; overrides spec when set)`)
	trafficFlag := fs.String("traffic", "", experiment.FormatSeriesHelp("traffic")+" (default uniform for flag-built specs; overrides spec when set)")
	nsFlag := fs.String("ns", "", "comma-separated switch sizes (default 32 for flag-built specs; overrides spec when set)")
	loadsFlag := fs.String("loads", "", "comma-separated loads (default: the paper's grid)")
	burstsFlag := fs.String("bursts", "", "comma-separated mean burst lengths; 0 = Bernoulli (overrides spec when set)")
	scenariosFlag := fs.String("scenarios", "", experiment.FormatSeriesHelp("scenario")+" (overrides spec when set)")
	windows := fs.Int("windows", 0, "time-series windows per point (overrides spec when set; scenarios default to 10)")
	replicas := fs.Int("replicas", 0, "independently-seeded runs per point (overrides spec when set)")
	slots := fs.Int64("slots", 0, "measured slots per replica (overrides spec when set)")
	warmup := fs.Int64("warmup", 0, "warmup slots (default slots/5)")
	seed := fs.Int64("seed", 0, "study base seed (overrides spec when set)")
	out := fs.String("out", "", "JSONL checkpoint file; appended as points finish, resumed if it exists")
	par := fs.Int("par", 0, "worker parallelism (default GOMAXPROCS)")
	remote := fs.String("remote", "", "sprinklerd base URL; submit the spec there instead of running locally")
	timeout := fs.Duration("timeout", 0, "cancel the study after this duration (0 = no limit)")
	csvOut := fs.Bool("csv", false, "emit CSV instead of the text tables")
	trajCSV := fs.Bool("trajcsv", false, "emit per-window trajectory CSV instead of the text tables")
	detail := fs.Bool("detail", false, "print per-point detail after the tables")
	quiet := fs.Bool("quiet", false, "suppress live progress on stderr")
	emitSpec := fs.Bool("emit-spec", false, "print the resolved spec as JSON and exit without running")
	countersOut := fs.String("counters-out", "", "write the run's work/cache counters as JSON to this file (local runs)")
	traceOut := fs.String("trace-out", "", "write the study's trace as Chrome trace-event JSON (open in Perfetto or chrome://tracing); with -remote, fetched from the daemon")
	switchwide := fs.Bool("switchwide", false, "bound studies: also print the switch-wide union bound")
	list := fs.Bool("list", false, "list registered architectures, workloads and scenarios with their options, then exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	if *list {
		registry.WriteCatalog(stdout)
		return 0
	}

	if *par < 0 {
		return fatal(fmt.Errorf("-par %d < 0", *par))
	}

	spec, err := experiment.BuildSpec(experiment.SpecArgs{
		SpecPath: *specPath, Builtin: *builtin, Name: *name, Kind: *kind,
		Algs: *algsFlag, Traffic: *trafficFlag, NS: *nsFlag, Loads: *loadsFlag,
		Bursts: *burstsFlag, Scenarios: *scenariosFlag, Windows: *windows,
		Replicas: *replicas, Slots: *slots,
		Warmup: *warmup, Seed: *seed,
	})
	if err != nil {
		return fatal(err)
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return fatal(err)
	}
	if *emitSpec {
		b, err := experiment.MarshalSpecIndent(spec)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}

	// Ctrl-C and -timeout share one context; both end the run cleanly with
	// the checkpoint flushed and the recorded prefix rendered.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var results []experiment.PointResult
	var runErr error
	var exportTrace func(io.Writer) error // set when -trace-out has a trace to write
	if *remote != "" {
		if *out != "" {
			return fatal(errors.New("-out is a local-only flag; a -remote study resumes from the daemon's cache on resubmission"))
		}
		client := &service.Client{BaseURL: *remote}
		var onEvent func(service.ProgressEvent)
		if !*quiet {
			onEvent = func(ev service.ProgressEvent) {
				printProgress(stderr, ev.Done, ev.Total, ev.Point)
			}
		}
		results, runErr = client.Run(ctx, spec, onEvent)
		if *traceOut != "" {
			// The daemon traced the run; fetch the merged timeline by the
			// study's content id (on a fresh bounded context, so a Ctrl-C'd
			// run still exports what was recorded).
			exportTrace = func(w io.Writer) error {
				tctx, tstop := context.WithTimeout(context.Background(), 30*time.Second)
				defer tstop()
				return client.TraceChrome(tctx, service.StudyID(spec), w)
			}
		}
	} else {
		cfg := experiment.StudyConfig{
			Parallelism: *par,
			ResultsPath: *out,
		}
		if !*quiet {
			cfg.Progress = func(done, total int, r experiment.PointResult) {
				printProgress(stderr, done, total, r)
			}
		}
		if *countersOut != "" {
			cfg.Counters = &experiment.Counters{}
		}
		var journal *trace.Journal
		var rootSpan *trace.Active
		runCtx := ctx
		if *traceOut != "" {
			// Local runs trace into an in-process journal: same spans the
			// daemon records, exported straight to Chrome trace JSON.
			journal = trace.NewJournal(1 << 16)
			id := service.StudyID(spec)
			rootSpan = trace.SpanContext{J: journal, Trace: id, Study: id, Node: "sweep"}.Start("study")
			rootSpan.Attr("name", spec.Name)
			runCtx = rootSpan.Context(ctx)
		}
		results, runErr = experiment.RunStudy(runCtx, spec, cfg)
		if cfg.Counters != nil {
			// Written on every outcome, so a canceled run's work is on
			// record too.
			err := writeFile(*countersOut, func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(cfg.Counters.Snapshot())
			})
			if err != nil {
				return fatal(err)
			}
		}
		if journal != nil {
			rootSpan.End()
			exportTrace = func(w io.Writer) error { return trace.WriteChromeTrace(w, journal.Snapshot()) }
		}
	}
	if exportTrace != nil {
		if err := writeFile(*traceOut, exportTrace); err != nil {
			fmt.Fprintf(stderr, "sweep: writing trace: %v\n", err)
		} else {
			fmt.Fprintf(stderr, "sweep: trace written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
		}
	}
	canceled := experiment.IsCancellation(runErr)
	switch {
	case runErr == nil:
	case canceled:
		fmt.Fprintf(stderr, "sweep: %s\n",
			experiment.CancelMessage(len(results), spec.NumPoints(), *out, *remote != ""))
	default:
		return fatal(runErr)
	}

	switch {
	case *csvOut:
		if err := experiment.RenderStudyCSV(stdout, results); err != nil {
			return fatal(err)
		}
	case *trajCSV:
		if err := experiment.RenderTrajectoryCSV(stdout, results); err != nil {
			return fatal(err)
		}
	case spec.Kind == experiment.MarkovStudy:
		fmt.Fprintf(stdout, "Expected intermediate-stage delay (cycles) versus switch size\n\n")
		experiment.RenderMarkovTable(stdout, results)
	case spec.Kind == experiment.BoundStudy:
		fmt.Fprintf(stdout, "Upper bound on the per-queue overload probability\n\n")
		experiment.RenderBoundTable(stdout, results, *switchwide)
	default:
		label := spec.Name
		if label == "" {
			label = "study"
		}
		fmt.Fprintf(stdout, "%s: average delay (slots) vs load, %d replicas/point, %d measured slots/replica\n\n",
			label, spec.Replicas, spec.Slots)
		experiment.RenderStudyCurves(stdout, results)
		if spec.Windows > 0 {
			fmt.Fprintf(stdout, "\nper-window trajectories (%d windows/point)\n\n", spec.Windows)
			experiment.RenderTrajectory(stdout, results)
		}
		if *detail {
			fmt.Fprintln(stdout)
			experiment.RenderStudyDetail(stdout, results)
		}
	}
	if canceled {
		return 2
	}
	return 0
}

// printProgress is the shared live progress line (local and remote runs).
func printProgress(w io.Writer, done, total int, r experiment.PointResult) {
	fmt.Fprintf(w, "[%d/%d] %s  mean-delay %.1f", done, total, r.PointKey, r.MeanDelay)
	if r.Replicas > 1 {
		fmt.Fprintf(w, "±%.1f (%d replicas)", r.DelayCI95, r.Replicas)
	}
	if r.QueueOverload != "" {
		fmt.Fprintf(w, "  overload %s", r.QueueOverload)
	}
	fmt.Fprintln(w)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
