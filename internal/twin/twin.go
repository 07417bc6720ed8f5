// Package twin evaluates calibrated analytic delay models ("analytic
// twins") for registered architectures. An adaptive study uses the twin as
// a cheap surrogate of the simulator: the closed form is evaluated at every
// candidate grid point, a per-series multiplicative scale is calibrated
// against the simulated coarse points, and new simulation is spent only
// where the calibrated twin and the simulation disagree (or the delay
// curve bends faster than the grid resolves).
//
// Which closed form tracks an architecture is registry metadata
// (registry.Architecture.Twin): the paper's intermediate-stage Markov
// model for the load-balanced striping family, a generic single-server
// queue shape for everything else. Architectures with a registered
// MaxStableLoad rescale load by it, so the twin diverges exactly where the
// architecture hits its stability cliff — which is where refinement should
// spend points.
package twin

import (
	"math"

	"sprinklers/internal/markov"
	"sprinklers/internal/registry"
)

// Model names understood by Delay.
const (
	// modelMarkov is the paper's Fig. 5 closed form for the mean
	// intermediate-stage queue of a load-balanced two-stage switch.
	modelMarkov = "markov"
	// modelQueue is a generic single-server queueing shape rho/(1-rho) —
	// the fallback for architectures without a registered twin.
	modelQueue = "queue"
)

// maxRho caps the effective load fed to the closed forms: both diverge as
// rho -> 1 and the markov form is undefined at 1. The cap keeps twin
// values finite while still towering over any simulated delay, which is
// all the refinement signal needs at a cliff.
const maxRho = 0.999

// Model returns the twin model and stability cap registered for an
// architecture name. Unknown names (and architectures without a Twin
// entry) fall back to modelQueue with no cap.
func Model(arch string) (model string, maxStable float64) {
	a, ok := registry.LookupArchitecture(arch)
	if !ok {
		return modelQueue, 0
	}
	model = a.Twin
	if model == "" {
		model = modelQueue
	}
	return model, a.MaxStableLoad
}

// Delay evaluates the raw (uncalibrated) twin at one operating point.
// maxStable > 0 rescales load by the architecture's stability limit, so
// the model blows up at the registered cliff instead of at load 1.
func Delay(model string, maxStable float64, n int, load float64) float64 {
	rho := load
	if maxStable > 0 {
		rho = load / maxStable
	}
	rho = math.Min(rho, maxRho)
	switch model {
	case modelMarkov:
		return markov.MeanQueueClosedForm(n, rho)
	default:
		return rho / (1 - rho)
	}
}

// Calibrate returns the multiplicative scale mapping raw twin values onto
// simulated delays: the mean of the per-point ratios sim/raw. A ratio mean
// (rather than a least-squares fit) weighs the low-load points — where the
// twin's shape assumptions hold best — equally with the knee, and is
// trivially deterministic. Without usable points the scale is 1 (the twin
// is used uncalibrated).
func Calibrate(raw, sim []float64) float64 {
	if len(raw) != len(sim) {
		panic("twin: Calibrate called with mismatched series")
	}
	var sum float64
	var n int
	for i := range raw {
		if raw[i] > 1e-9 {
			sum += sim[i] / raw[i]
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// Divergence is the relative disagreement between a calibrated twin value
// and a simulated delay, with the denominator floored at 1 slot so
// near-zero delays cannot manufacture infinite divergence.
func Divergence(twinDelay, simDelay float64) float64 {
	return math.Abs(twinDelay-simDelay) / math.Max(math.Abs(simDelay), 1)
}
