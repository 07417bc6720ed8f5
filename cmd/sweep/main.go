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
// daemon trouble on its own: failed requests are retried with capped
// backoff, a dropped progress stream reconnects where it left off (each
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
//	sweep -remote http://127.0.0.1:8356 -builtin smoke
//	sweep -list
//
// Algorithm, traffic and scenario names resolve through the shared
// registry (-list enumerates them), and every series flag accepts the
// shared series syntax "name" or "name:key=value,..." (e.g. -algs
// "pf:threshold=64,sprinklers"). In a spec file an entry may carry typed
// options with an "as" label keeping two option variants distinct.
//
// Ctrl-C (or -timeout expiry) stops the study cleanly: everything recorded
// so far is already flushed to the -out checkpoint, the partial results are
// rendered, and the exit status is 2 — resume by re-running the same spec
// with the same -out.
//
// Exit status: 0 on success, 1 on error, 2 when canceled by Ctrl-C or
// -timeout, 3 when -halt-after stopped the run at the checkpoint limit
// (used by the CI resume test to simulate a kill).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
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
	specPath := flag.String("spec", "", "path to a JSON study spec")
	builtin := flag.String("builtin", "", "built-in study: fig6, fig7, fig5, table1, smoke, flashcrowd, adaptive-fig6, adaptive-smoke")
	name := flag.String("name", "", "study name (flag-built specs)")
	kind := flag.String("kind", "sim", "study kind: sim, adaptive, markov, bound (flag-built specs)")
	algsFlag := flag.String("algs", "", experiment.FormatSeriesHelp("algorithm")+`, or "all"/"paper" (flag-built specs)`)
	trafficFlag := flag.String("traffic", "uniform", experiment.FormatSeriesHelp("traffic")+" (flag-built specs)")
	nsFlag := flag.String("ns", "32", "comma-separated switch sizes (flag-built specs)")
	loadsFlag := flag.String("loads", "", "comma-separated loads (default: the paper's grid)")
	burstsFlag := flag.String("bursts", "", "comma-separated mean burst lengths; 0 = Bernoulli (overrides spec when set)")
	scenariosFlag := flag.String("scenarios", "", experiment.FormatSeriesHelp("scenario")+" (overrides spec when set)")
	windows := flag.Int("windows", 0, "time-series windows per point (overrides spec when set; scenarios default to 10)")
	replicas := flag.Int("replicas", 0, "independently-seeded runs per point (overrides spec when set)")
	slots := flag.Int64("slots", 0, "measured slots per replica (overrides spec when set)")
	warmup := flag.Int64("warmup", 0, "warmup slots (default slots/5)")
	seed := flag.Int64("seed", 0, "study base seed (overrides spec when set)")
	out := flag.String("out", "", "JSONL checkpoint file; appended as points finish, resumed if it exists")
	par := flag.Int("par", 0, "worker parallelism (default GOMAXPROCS)")
	remote := flag.String("remote", "", "sprinklerd base URL; submit the spec there instead of running locally")
	timeout := flag.Duration("timeout", 0, "cancel the study after this duration (0 = no limit)")
	csvOut := flag.Bool("csv", false, "emit CSV instead of the text tables")
	trajCSV := flag.Bool("trajcsv", false, "emit per-window trajectory CSV instead of the text tables")
	detail := flag.Bool("detail", false, "print per-point detail after the tables")
	quiet := flag.Bool("quiet", false, "suppress live progress on stderr")
	emitSpec := flag.Bool("emit-spec", false, "print the resolved spec as JSON and exit without running")
	haltAfter := flag.Int("halt-after", 0, "stop after recording this many new points (simulates a mid-study kill; exit 3)")
	countersOut := flag.String("counters-out", "", "write the run's work/cache counters as JSON to this file (local runs)")
	traceOut := flag.String("trace-out", "", "write the study's trace as Chrome trace-event JSON (open in Perfetto or chrome://tracing); with -remote, fetched from the daemon")
	switchwide := flag.Bool("switchwide", false, "bound studies: also print the switch-wide union bound")
	list := flag.Bool("list", false, "list registered architectures and workloads with their options, then exit")
	flag.Parse()

	if *list {
		registry.WriteCatalog(os.Stdout)
		return
	}

	if *par < 0 {
		fatal(fmt.Errorf("-par %d < 0", *par))
	}
	if *haltAfter < 0 {
		fatal(fmt.Errorf("-halt-after %d < 0", *haltAfter))
	}

	spec, err := experiment.BuildSpec(experiment.SpecArgs{
		SpecPath: *specPath, Builtin: *builtin, Name: *name, Kind: *kind,
		Algs: *algsFlag, Traffic: *trafficFlag, NS: *nsFlag, Loads: *loadsFlag,
		Bursts: *burstsFlag, Scenarios: *scenariosFlag, Windows: *windows,
		Replicas: *replicas, Slots: *slots,
		Warmup: *warmup, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		fatal(err)
	}
	if *emitSpec {
		if err := writeSpec(os.Stdout, spec); err != nil {
			fatal(err)
		}
		return
	}

	// Ctrl-C and -timeout share one context; both end the run cleanly with
	// the checkpoint flushed and the recorded prefix rendered.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var results []experiment.PointResult
	var runErr error
	if *remote != "" {
		if *out != "" || *haltAfter > 0 {
			fatal(errors.New("-remote runs checkpoint on the daemon; -out and -halt-after are local-only flags"))
		}
		client := &service.Client{BaseURL: *remote}
		var progress func(service.ProgressEvent)
		if !*quiet {
			progress = func(ev service.ProgressEvent) {
				printProgress(ev.Done, ev.Total, ev.Point)
			}
		}
		results, runErr = client.Run(ctx, spec, progress)
		if *traceOut != "" {
			// The daemon traced the run; fetch the merged timeline by the
			// study's content id (on a fresh bounded context, so a Ctrl-C'd
			// run still exports what was recorded).
			tctx, tstop := context.WithTimeout(context.Background(), 30*time.Second)
			if err := fetchRemoteTrace(tctx, client, service.StudyID(spec), *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: fetching trace: %v\n", err)
			}
			tstop()
		}
	} else {
		cfg := experiment.StudyConfig{
			Parallelism:     *par,
			ResultsPath:     *out,
			HaltAfterPoints: *haltAfter,
		}
		if !*quiet {
			cfg.Progress = printProgress
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
			// Written on every outcome — the CI slot-budget comparisons read
			// it after halted and resumed runs too.
			if err := writeCounters(*countersOut, cfg.Counters); err != nil {
				fatal(err)
			}
		}
		if journal != nil {
			rootSpan.End()
			if err := writeLocalTrace(journal, *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "sweep: writing trace: %v\n", err)
			}
		}
	}
	canceled := experiment.IsCancellation(runErr)
	switch {
	case runErr == nil:
	case errors.Is(runErr, experiment.ErrHalted):
		fmt.Fprintf(os.Stderr, "sweep: halted after %d new points; resume with the same -spec and -out\n", *haltAfter)
		os.Exit(3)
	case canceled:
		fmt.Fprintf(os.Stderr, "sweep: %s\n",
			experiment.CancelMessage(len(results), spec.NumPoints(), *out, *remote != ""))
	default:
		fatal(runErr)
	}

	switch {
	case *csvOut:
		if err := experiment.RenderStudyCSV(os.Stdout, results); err != nil {
			fatal(err)
		}
	case *trajCSV:
		if err := experiment.RenderTrajectoryCSV(os.Stdout, results); err != nil {
			fatal(err)
		}
	case spec.Kind == experiment.MarkovStudy:
		fmt.Printf("Expected intermediate-stage delay (cycles) versus switch size\n\n")
		experiment.RenderMarkovTable(os.Stdout, results)
	case spec.Kind == experiment.BoundStudy:
		fmt.Printf("Upper bound on the per-queue overload probability\n\n")
		experiment.RenderBoundTable(os.Stdout, results, *switchwide)
	default:
		label := spec.Name
		if label == "" {
			label = "study"
		}
		fmt.Printf("%s: average delay (slots) vs load, %d replicas/point, %d measured slots/replica\n\n",
			label, spec.Replicas, spec.Slots)
		experiment.RenderStudyCurves(os.Stdout, results)
		if spec.Windows > 0 {
			fmt.Printf("\nper-window trajectories (%d windows/point)\n\n", spec.Windows)
			experiment.RenderTrajectory(os.Stdout, results)
		}
		if *detail {
			fmt.Println()
			experiment.RenderStudyDetail(os.Stdout, results)
		}
	}
	if canceled {
		os.Exit(2)
	}
}

// printProgress is the shared live progress line (local and remote runs).
func printProgress(done, total int, r experiment.PointResult) {
	fmt.Fprintf(os.Stderr, "[%d/%d] %s  mean-delay %.1f", done, total, r.PointKey, r.MeanDelay)
	if r.Replicas > 1 {
		fmt.Fprintf(os.Stderr, "±%.1f (%d replicas)", r.DelayCI95, r.Replicas)
	}
	if r.QueueOverload != "" {
		fmt.Fprintf(os.Stderr, "  overload %s", r.QueueOverload)
	}
	fmt.Fprintln(os.Stderr)
}

// writeCounters dumps the run's counter snapshot as indented JSON.
func writeCounters(path string, ctr *experiment.Counters) error {
	b, err := json.MarshalIndent(ctr.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpec(w *os.File, spec experiment.Spec) error {
	b, err := experiment.MarshalSpecIndent(spec)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// fetchRemoteTrace downloads a study's Chrome trace JSON from the daemon.
func fetchRemoteTrace(ctx context.Context, client *service.Client, id, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := client.TraceChrome(ctx, id, f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: trace written to %s (load in Perfetto or chrome://tracing)\n", path)
	return nil
}

// writeLocalTrace exports a local run's journal as Chrome trace JSON.
func writeLocalTrace(journal *trace.Journal, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(f, journal.Snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: trace written to %s (load in Perfetto or chrome://tracing)\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
