// Command benchsnap measures the canonical slot-stepping benchmarks and
// writes (or checks) the machine-readable snapshot BENCH_10.json.
//
// Usage:
//
//	benchsnap -out BENCH_10.json [-sizes 256,1024,4096]
//	benchsnap -check -against BENCH_10.json [-tolerance 0.10] [-out fresh.json]
//
// Without -check it measures and writes the snapshot. With -check it
// measures, optionally writes the fresh snapshot (for CI artifacts), and
// exits 1 if any step or source point regressed beyond the tolerance versus
// the committed baseline, or if any point's steady-state allocations grew.
// Cross-machine ns/op comparisons are noise: check against baselines
// produced on comparable hardware and widen -tolerance on shared runners.
//
// With -study (on by default) the snapshot also records the
// adaptive-vs-dense study point: the adaptive-smoke builtin run end to
// end, with the slots it simulated versus the dense-grid equivalent — the
// measured work saving of adaptive refinement plus early stopping. The
// point is never timing-gated (Parallelism 0).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sprinklers/internal/benchsnap"
)

func main() {
	out := flag.String("out", "BENCH_10.json", "snapshot file to write (empty = do not write)")
	check := flag.Bool("check", false, "compare the fresh measurement against -against and fail on regression")
	against := flag.String("against", "BENCH_10.json", "committed baseline snapshot for -check")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression for step and source points")
	sizes := flag.String("sizes", "256,1024,4096", "comma-separated switch sizes")
	warmup := flag.Int("warmup", 0, "warmup slots per point (0 = 12*N)")
	study := flag.Bool("study", true, "also measure the adaptive-vs-dense study point (adaptive-smoke end to end)")
	flag.Parse()

	cfg := benchsnap.Config{
		Sizes:  ints(*sizes),
		Warmup: *warmup,
		Study:  *study,
	}
	fresh, err := benchsnap.Collect(cfg)
	if err != nil {
		fatal(err)
	}
	for _, pt := range fresh.Points {
		fmt.Printf("%-20s %12.0f ns/op %8d allocs/op %12.0f slots/sec\n",
			pt.Name, pt.NsPerOp, pt.AllocsPerOp, pt.SlotsPerSec)
	}
	if *out != "" {
		if err := fresh.Save(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%s, %d cpus)\n", *out, fresh.GoVersion, fresh.CPUs)
	}
	if *check {
		baseline, err := benchsnap.Load(*against)
		if err != nil {
			fatal(err)
		}
		violations := benchsnap.Compare(baseline, fresh, *tolerance)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "benchsnap: REGRESSION:", v)
			}
			os.Exit(1)
		}
		fmt.Printf("no regression vs %s (tolerance %.0f%%, %d baseline points)\n",
			*against, 100**tolerance, len(baseline.Points))
	}
}

func ints(csv string) []int {
	if csv == "" {
		return nil
	}
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			fatal(fmt.Errorf("bad integer list %q: %w", csv, err))
		}
		out = append(out, v)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchsnap:", err)
	os.Exit(1)
}
