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
//	stripestats [-n 32] [-load 0.95] [-traffic adversarial|<registered workload>]
//	            [-topt key=value ...] [-trials 20000] [-seed 1]
//	stripestats -list
//
// -traffic accepts any workload registered in the shared registry (the
// analysis uses the rate split of input 0) plus "adversarial", the
// dyadic worst-case split of the Theorem 2 analysis. -topt sets a
// registered workload option (repeatable), e.g.
// `-traffic zipf -topt exponent=1.2`; omitted options take their schema
// defaults (-list shows them). Note: -traffic zipf previously hard-coded
// exponent 1.2; it now takes the registered default of 1.0 unless set
// via -topt.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"

	_ "sprinklers/internal/arch" // link the registered workloads
	"sprinklers/internal/bound"
	"sprinklers/internal/loadbalance"
	"sprinklers/internal/registry"
)

func main() {
	n := flag.Int("n", 32, "switch size (power of two)")
	load := flag.Float64("load", 0.95, "total input-port load in (0, 1)")
	kind := flag.String("traffic", "adversarial",
		"rate split: adversarial, "+strings.Join(registry.WorkloadNames(), ", "))
	topts := registry.OptionFlag{}
	flag.Var(topts, "topt", "workload option as key=value (repeatable); see -list for schemas")
	trials := flag.Int("trials", 20000, "Monte-Carlo placements")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list registered architectures and workloads with their options, then exit")
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

	var rates []float64
	if *kind == "adversarial" {
		if len(topts) > 0 {
			fatal(fmt.Errorf("the adversarial split takes no -topt options"))
		}
		rates = loadbalance.AdversarialSplit(*n, *load)
	} else {
		if _, ok := registry.LookupWorkload(*kind); !ok {
			fatal(fmt.Errorf("-traffic %q unknown: want adversarial or a registered workload (%s)",
				*kind, strings.Join(registry.WorkloadNames(), ", ")))
		}
		rows, err := registry.WorkloadRates(*kind, *n, *load,
			rand.New(rand.NewSource(*seed)), topts)
		if err != nil {
			fatal(err)
		}
		rates = rows[0]
	}

	mc := loadbalance.Estimate(rates, *n, *trials,
		[]float64{0.5, 0.9, 0.99, 0.999}, rand.New(rand.NewSource(*seed)))

	service := 1 / float64(*n)
	fmt.Printf("stripe load balance: N=%d, load %.3f, %s split, %d random placements\n\n",
		*n, *load, *kind, *trials)
	fmt.Printf("service rate per queue     : %.6f (1/N)\n", service)
	fmt.Printf("mean of max queue load     : %.6f (%.1f%% of service rate)\n",
		mc.MeanMax, 100*mc.MeanMax/service)
	for i, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		fmt.Printf("p%-5.1f of max queue load   : %.6f\n", q*100, mc.MaxQuantile[i])
	}
	// Each empirical frequency sits next to the bound on the same event:
	// Theorem 2 bounds one queue, and the union bound covers input 0's N.
	lp := bound.LogQueueOverload(*n, *load)
	impossible := math.IsInf(lp, -1) // below Theorem 1's threshold
	lu := math.Min(lp+math.Log(float64(*n)), 0)
	fmt.Printf("\nper queue, overloaded      : %d of %d (P = %.2e)\n",
		mc.QueueOverloads, mc.Trials*mc.N, mc.QueueOverloadProbability())
	if !impossible {
		fmt.Printf("  Theorem 2 bound          : %.2e (log %.2f)\n", math.Exp(lp), lp)
	}
	fmt.Printf("any of N queues, overloaded: %d of %d placements (P = %.2e)\n",
		mc.Overloads, mc.Trials, mc.OverloadProbability())
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
