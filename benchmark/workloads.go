package main

import (
	"fmt"
	"math"

	"sprinklers/internal/experiment"
	"sprinklers/internal/sim"
)

// kind selects how a workload's studies are executed.
type kind int

const (
	kindEngine  kind = iota // experiment.RunStudy, no cache: the simulator does all the work
	kindCold                // RunStudy against a fresh result cache and a JSONL checkpoint
	kindWarm                // the cold specs resubmitted against a cache filled during set-up
	kindRemote              // service.Client.Run against one in-process daemon
	kindCluster             // the same through a coordinator and two in-process workers
)

// workload is one named set of inputs. A round sets the environment up,
// runs every spec passes times and tears the environment down; rounds
// repeat until the requested measuring time is used.
type workload struct {
	Name string
	Why  string
	kind kind
	// par is StudyConfig.Parallelism (or the daemon's -par). It is fixed,
	// never derived from the CPU count, so numbers compare across machines.
	par int
	// passes is how many times a round runs its specs (before scaling).
	passes int
	specs  func(seed int64, scale float64) []experiment.Spec
}

// studyPar is the fixed study parallelism of every workload but the
// single-point-at-a-time large-N one.
const studyPar = 2

// gridK is the number of distinct grid studies per round at scale 1, and
// warmPasses how often grid-warm resubmits them within one round.
const (
	gridK      = 6
	warmPasses = 100
)

var workloads = []workload{
	{
		Name: "fig6-n32",
		Why:  "Fig. 6 in miniature: five architectures at N=32, so the baselines' Step dominates and orchestration does nothing",
		kind: kindEngine, par: studyPar, passes: 1, specs: fig6Specs,
	},
	{
		Name: "sprinklers-n128",
		Why:  "one large-N Sprinklers point at a time: N^2 log N center-stage queues make the core layer memory-bound and construction visible",
		kind: kindEngine, par: 1, passes: 1, specs: largeNSpecs,
	},
	{
		Name: "grid-cold",
		Why:  "528 sub-millisecond jobs per study against an empty cache: per-point bookkeeping, checkpoint append and cache Put are a large share",
		kind: kindCold, par: studyPar, passes: 1, specs: gridSpecs,
	},
	{
		Name: "grid-warm",
		Why:  "the same studies resubmitted against a filled cache: cache Get, decode and checkpoint with the engine bypassed entirely",
		kind: kindWarm, par: studyPar, passes: warmPasses, specs: gridSpecs,
	},
	{
		Name: "grid-remote",
		Why:  "the same studies through one daemon: adds HTTP/JSON submit, SSE progress and the results fetch and nothing else",
		kind: kindRemote, par: studyPar, passes: 1, specs: gridSpecs,
	},
	{
		Name: "grid-cluster",
		Why:  "the same studies through a coordinator and two workers: lease, HTTP and JSON per dispatched job dominate the wall clock",
		kind: kindCluster, par: studyPar, passes: 1, specs: gridSpecs,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled multiplies a horizon or count by the scale, never below min.
func scaled(base int, scale float64, min int) int {
	v := int(math.Round(float64(base) * scale))
	if v < min {
		return min
	}
	return v
}

// specSeed keeps the spec's base seed non-zero (zero means "default 1").
func specSeed(seed int64, k int) int64 {
	s := seed*1009 + int64(k) + 1
	if s == 0 {
		s = 1
	}
	return s
}

func fig6Specs(seed int64, scale float64) []experiment.Spec {
	return []experiment.Spec{{
		Name:       "bench-fig6-n32",
		Algorithms: experiment.Algs(experiment.Fig6Algorithms...),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      []float64{0.3, 0.6, 0.9, 0.95},
		Sizes:      []int{32},
		Slots:      sim.Slot(scaled(10_000, scale, 8)),
		Warmup:     sim.Slot(scaled(2_000, scale, 2)),
		Seed:       specSeed(seed, 0),
	}}
}

// largeNSpecs warms up past N^2/load = 18.2k slots: Eq. 1 sizes every
// stripe to N here, so nothing is delivered before the stripes have filled.
func largeNSpecs(seed int64, scale float64) []experiment.Spec {
	return []experiment.Spec{{
		Name:       "bench-sprinklers-n128",
		Algorithms: experiment.Algs(experiment.Sprinklers),
		Traffic:    experiment.Traffics(experiment.UniformTraffic, experiment.DiagonalTraffic),
		Loads:      []float64{0.9},
		Sizes:      []int{128},
		Slots:      sim.Slot(scaled(5_000, scale, 8)),
		Warmup:     sim.Slot(scaled(20_000, scale, 2)),
		Seed:       specSeed(seed, 0),
	}}
}

// gridSpecs are the K small studies every grid workload shares: all
// registered architectures by explicit name, 176 points of 3 replicas. A
// scale below 1 also trims the load grid, since the per-job cost the grid
// workloads exist to measure does not shrink with the horizon.
func gridSpecs(seed int64, scale float64) []experiment.Spec {
	loads := experiment.PaperLoads[:min(len(experiment.PaperLoads), scaled(len(experiment.PaperLoads), scale, 2))]
	specs := make([]experiment.Spec, scaled(gridK, scale, 2))
	for k := range specs {
		specs[k] = experiment.Spec{
			Name: fmt.Sprintf("bench-grid-%d", k),
			Algorithms: experiment.Algs(
				experiment.LoadBalanced, experiment.UFS, experiment.FOFF, experiment.PF,
				experiment.Sprinklers, experiment.SprinklersGreedy, experiment.TCPHashing, experiment.CMS),
			Traffic:  experiment.Traffics(experiment.UniformTraffic, experiment.DiagonalTraffic),
			Loads:    loads,
			Sizes:    []int{8},
			Replicas: 3,
			Slots:    sim.Slot(scaled(400, scale, 8)),
			Warmup:   sim.Slot(scaled(100, scale, 2)),
			Seed:     specSeed(seed, k),
		}
	}
	return specs
}

// warmupSpec is the small untimed study a round's set-up runs first: the
// same shape with a tenth of the horizon. The horizon is part of a point's
// cache identity, so it fills no cache entry a timed study would hit.
func warmupSpec(s experiment.Spec) experiment.Spec {
	s.Name += "-warmup"
	s.Slots = max(s.Slots/10, 4)
	s.Warmup = max(s.Warmup/10, 1)
	return s
}
