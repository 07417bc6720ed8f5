// Command benchmark is the repository's one benchmark: six study workloads
// driven through the product's real entry points (experiment.RunStudy,
// service.Client.Run against in-process daemons, a coordinator with two
// workers), three end-to-end metrics measured with tracing off, and a
// second, traced pass that times the calls into each layer from outside.
// README.md in this directory has the tables and the reasons.
//
//	go run ./benchmark --workload grid-cold --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -repeat 5 -out new.json
//	go run ./benchmark -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// tmpRoot is where rounds keep their caches and checkpoints: inside the
// checkout the benchmark was started from, and ignored by git.
const tmpRoot = ".bench_build"

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line a run prints, in the driver's format.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as a report file keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Samples  int    `json:"samples"`
	result
}

// report is what -out writes and -compare reads.
type report struct {
	Scale      float64     `json:"scale"`
	Seconds    float64     `json:"seconds"`
	GoVersion  string      `json:"go_version"`
	NProc      int         `json:"nproc"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Commit     string      `json:"commit"`
	Degraded   bool        `json:"degraded"`
	Runs       []runRecord `json:"runs"`
	// Claim stays null: a report states what was measured, never a gain.
	Claim *string `json:"claim"`
}

func newReport(scale, seconds float64) *report {
	r := &report{
		Scale: scale, Seconds: seconds,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit: "unknown",
	}
	// Study parallelism is fixed at 2; with fewer CPUs the two pool workers
	// share one and every wall clock is inflated.
	r.Degraded = r.NProc < studyPar || r.GoMaxProcs < studyPar
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				r.Commit = s.Value
			}
		}
	}
	return r
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed: the only input knob")
	seconds := fs.Float64("seconds", 10, "study time to measure per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced per-layer pass")
	scale := fs.Float64("scale", 1, "multiplies slot horizons and study counts")
	repeat := fs.Int("repeat", 1, "run the workloads this many times (seed, seed+1, ...), rotating their order, and print each metric's spread")
	out := fs.String("out", "", "write every run to this report file")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the recorded spans here (Chrome trace-event JSON)")
	compare := fs.Bool("compare", false, "compare pairs of report files: old.json new.json [old2.json new2.json ...]")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	updateGolden := fs.String("update-golden", "", "write the result digests of this run to the named golden file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *manifest:
		return printManifest(stdout)
	case *compare:
		return compareReports(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *scale <= 0 || *seconds < 0 || *repeat < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rep := newReport(*scale, *seconds)
	fmt.Fprintf(stdout, "benchmark: %s nproc=%d GOMAXPROCS=%d commit=%s scale=%g seconds=%g degraded=%v\n",
		rep.GoVersion, rep.NProc, rep.GoMaxProcs, rep.Commit, rep.Scale, rep.Seconds, rep.Degraded)

	b := &bench{stdout: stdout, golden: loadGolden()}
	if *traced == 1 {
		b.spans = newSpanLog()
	}
	ctx := context.Background()
	for i := 0; i < *repeat; i++ {
		for j := range selected {
			w := selected[(i+j)%len(selected)]
			cfg := passConfig{seed: *seed + int64(i), scale: *scale, seconds: *seconds, minRounds: minRounds, tmp: tmp}
			if *seconds == 0 {
				cfg.minRounds = 1 // no time asked for: the least work that exercises everything
			}
			rec, err := b.runOne(ctx, w, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			rep.Runs = append(rep.Runs, rec)
			line, _ := json.Marshal(rec.result)
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if *repeat > 1 {
		printSpread(stdout, rep)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceOut != "" && b.spans != nil {
		if err := b.spans.writeChrome(*traceOut); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *updateGolden != "" {
		if err := writeJSON(*updateGolden, goldenFile{Seed: *seed, Scale: *scale, SHA256: b.digests}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

// bench carries what outlives one run: the golden digests to compare with,
// the digests seen, and in a traced invocation the span log.
type bench struct {
	stdout  io.Writer
	golden  goldenFile
	digests map[string]string
	spans   *spanLog
}

// runOne runs one workload once, untraced or traced, prints what it
// measured in readable form and returns the record for the result line.
func (b *bench) runOne(ctx context.Context, w workload, cfg passConfig) (runRecord, error) {
	rec := runRecord{Workload: w.Name, Seed: cfg.seed, Trace: b.spans != nil}
	fmt.Fprintf(b.stdout, "\n== %s seed=%d trace=%v: %s\n", w.Name, cfg.seed, rec.Trace, w.Why)
	var (
		s       *sampled
		metrics metricSet
		defs    = endToEnd
		ok      = true
		err     error
	)
	if rec.Trace {
		defs = perLayer
		s, metrics, ok, err = tracedPass(ctx, w, cfg, b.spans, b.stdout)
	} else if s, err = measure(ctx, w, cfg, w.par, fleetOpts{}, nil, plainRun); err == nil {
		metrics = endToEndMetrics(s)
	}
	if err != nil {
		return rec, err
	}
	match := b.compareGolden(w, cfg, resultsDigest(s.first))
	if rec.Trace {
		metrics["experiment.golden_match"] = match
	}

	fmt.Fprintf(b.stdout, "study_wall_s  %s\n", timing(s.walls, "s"))
	fmt.Fprintf(b.stdout, "alloc_mb      %s\n", timing(s.allocs, "MB"))
	fmt.Fprintf(b.stdout, "setup_s       %s\n", timing(s.setups, "s"))
	slots := s.perStudy(slotsSimulated)
	fmt.Fprintf(b.stdout, "work          %d points and %g slots per study; slots_per_s %.6g (information, not gated)\n",
		w.specs(cfg.seed, cfg.scale)[0].WithDefaults().NumPoints(), slots, slots/median(s.walls))
	fmt.Fprintf(b.stdout, "failed_share  %d/%d points\n", s.failed, s.attempted)
	rec.Samples = s.studies()
	rec.result = result{
		Correct:   ok && s.failed == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   metrics.emit(defs),
	}
	for _, d := range defs {
		fmt.Fprintf(b.stdout, "  %-40s %14.6g %s\n", d.Name, metrics[d.Name], d.Unit)
	}
	return rec, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printManifest prints BENCHMARK.json from the tables in this package, so
// the committed file cannot drift from what the benchmark emits.
func printManifest(w io.Writer) int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, x := range workloads {
		m.Workloads = append(m.Workloads, wl{x.Name, x.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	return 0
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver's runs
// measure. With set-up, reference runs and tear-down a run then takes 12 to
// 20 s, which fits the driver's cap for all its runs together.
const runSeconds = 10

// printSpread prints, per workload and end-to-end metric, the median over
// the runs and the quartile distance as a share of it, against the bound.
func printSpread(w io.Writer, rep *report) {
	fmt.Fprintln(w, "\n== spread over the runs of each workload (quartile distance / median, against the bound)")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			var vals []float64
			for _, r := range rep.Runs {
				if r.Workload == wl.Name && !r.Trace {
					vals = append(vals, r.Metrics[d.Name].Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			verdict := "ok"
			if sp := iqrShare(vals); sp > d.Bound {
				verdict = "WIDER THAN BOUND"
			} else if sp > d.Bound/3 {
				verdict = "above a third of the bound"
			}
			fmt.Fprintf(w, "%-16s %-13s n=%d median %10.6g %-2s spread %6.2f%%  bound %4.0f%%  %s\n",
				wl.Name, d.Name, len(vals), median(vals), d.Unit, 100*iqrShare(vals), 100*d.Bound, verdict)
		}
	}
}

// goldenFile is golden.json: the SHA-256 of each workload's marshalled
// results for one seed and scale.
type goldenFile struct {
	Seed   int64             `json:"seed"`
	Scale  float64           `json:"scale"`
	SHA256 map[string]string `json:"sha256"`
}

// compareGolden records the digest and compares it with the golden file
// when the run used the golden seed and scale. It returns 1 on a match, 0
// on a mismatch and -1 when the run is not comparable. A mismatch is loud
// but not a failure: an intended model fix has to stay landable, and host
// times measured across it are not comparable.
func (b *bench) compareGolden(w workload, cfg passConfig, digest string) float64 {
	if b.digests == nil {
		b.digests = map[string]string{}
	}
	if _, seen := b.digests[w.Name]; !seen {
		b.digests[w.Name] = digest
	}
	want, ok := b.golden.SHA256[w.Name]
	if !ok || cfg.seed != b.golden.Seed || cfg.scale != b.golden.Scale {
		fmt.Fprintf(b.stdout, "golden        not compared (seed %d, scale %g)\n", cfg.seed, cfg.scale)
		return -1
	}
	if want != digest {
		fmt.Fprintf(b.stdout, "golden        SIMULATED STATISTICS CHANGED: %s digest %s, golden %s; host times are not comparable with earlier runs\n",
			w.Name, digest[:16], want[:min(16, len(want))])
		return 0
	}
	fmt.Fprintf(b.stdout, "golden        match (%s)\n", digest[:16])
	return 1
}
