// Command stripestats analyzes the load-balancing quality of Sprinklers'
// randomized variable-size striping — the empirical side of the Sec. 4
// stability analysis. For a chosen traffic pattern and load it Monte-Carlo
// samples random stripe placements, reports the distribution of the
// maximum per-queue arrival rate (service rate is 1/N), and compares the
// empirical overload frequencies with the Theorem 2 Chernoff bound: the
// per-queue frequency against the per-queue bound, and the frequency of
// any of input 0's N queues overloaded against the union bound
// min(1, N·bound).
//
// Usage:
//
//	stripestats [-n 32] [-load 0.95] [-traffic adversarial|<workload>[:key=value,...]]
//	            [-trials 20000] [-seed 1]
//	stripestats -list
//
// -traffic accepts any workload registered in the shared registry (the
// analysis uses the rate split of input 0) plus "adversarial", the
// dyadic worst-case split of the Theorem 2 analysis. A registered
// workload takes its options in the series syntax sweep's -traffic uses,
// e.g. `-traffic zipf:exponent=1.2`; omitted options take their schema
// defaults (-list shows them).
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	_ "sprinklers/internal/arch" // link the registered workloads and scenarios (-list)
	"sprinklers/internal/bound"
	"sprinklers/internal/registry"
)

func main() {
	n := flag.Int("n", 32, "switch size (power of two)")
	load := flag.Float64("load", 0.95, "total input-port load in (0, 1)")
	traffic := flag.String("traffic", "adversarial",
		"rate split: adversarial, or a workload with optional options as name:key=value,... ("+
			strings.Join(registry.Workloads.Names(), ", ")+"); see -list for schemas")
	trials := flag.Int("trials", 20000, "Monte-Carlo placements")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list registered architectures, workloads and scenarios with their options, then exit")
	flag.Parse()

	if *list {
		registry.WriteCatalog(os.Stdout)
		return
	}
	if *n < 2 || *n&(*n-1) != 0 {
		fatal(fmt.Errorf("-n %d is not a power of two >= 2", *n))
	}
	if !(*load > 0 && *load < 1) {
		fatal(fmt.Errorf("-load %v outside (0, 1)", *load))
	}
	if *trials <= 0 {
		fatal(fmt.Errorf("-trials %d <= 0", *trials))
	}

	kind, topts, err := registry.ParseSeriesEntry(*traffic)
	if err != nil {
		fatal(err)
	}
	var rates []float64
	if kind == "adversarial" {
		if len(topts) > 0 {
			fatal(fmt.Errorf("the adversarial split takes no options"))
		}
		rates = adversarialSplit(*n, *load)
	} else {
		if _, ok := registry.Workloads.Lookup(kind); !ok {
			fatal(fmt.Errorf("-traffic %q unknown: want adversarial or a registered workload (%s)",
				kind, strings.Join(registry.Workloads.Names(), ", ")))
		}
		rows, err := registry.WorkloadRates(kind, *n, *load,
			rand.New(rand.NewSource(*seed)), topts)
		if err != nil {
			fatal(err)
		}
		rates = rows[0]
	}

	mc := estimate(rates, *n, *trials,
		[]float64{0.5, 0.9, 0.99, 0.999}, rand.New(rand.NewSource(*seed)))

	service := 1 / float64(*n)
	fmt.Printf("stripe load balance: N=%d, load %.3f, %s split, %d random placements\n\n",
		*n, *load, kind, *trials)
	fmt.Printf("service rate per queue     : %.6f (1/N)\n", service)
	fmt.Printf("mean of max queue load     : %.6f (%.1f%% of service rate)\n",
		mc.meanMax, 100*mc.meanMax/service)
	for i, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Printf("p%-5.1f of max queue load   : %.6f\n", q*100, mc.maxQuantile[i])
	}
	// Each empirical frequency sits next to the bound on the same event:
	// Theorem 2 bounds one queue, and the union bound covers input 0's N.
	lp := bound.LogQueueOverload(*n, *load)
	impossible := math.IsInf(lp, -1) // below Theorem 1's threshold
	lu := math.Min(lp+math.Log(float64(*n)), 0)
	fmt.Printf("\nper queue, overloaded      : %d of %d (P = %.2e)\n",
		mc.queueOverloads, mc.trials*mc.n, mc.queueOverloadProbability())
	if !impossible {
		fmt.Printf("  Theorem 2 bound          : %.2e (log %.2f)\n", math.Exp(lp), lp)
	}
	fmt.Printf("any of N queues, overloaded: %d of %d placements (P = %.2e)\n",
		mc.overloads, mc.trials, mc.overloadProbability())
	if !impossible {
		fmt.Printf("  min(1, N x Theorem 2)    : %.2e (log %.2f)\n", math.Exp(lu), lu)
	}
	if impossible {
		fmt.Printf("Theorem 1: load below 2/3 + 1/(3N^2) = %.6f, overload impossible\n",
			bound.FeasibilityThreshold(*n))
	} else {
		fmt.Println("\n(The bound is loose at small N; it tightens dramatically as N grows —")
		fmt.Println(" see `sweep -builtin table1` for the N >= 1024 regime of the paper's Table 1.)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stripestats:", err)
	os.Exit(1)
}
