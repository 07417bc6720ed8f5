// Package pf implements the Padded Frames switch of Jaramillo, Milan and
// Srikant (Sec. 2.2 / [9] in the paper). Like UFS it only spreads full
// frames, which preserves packet order; unlike UFS it does not wait
// indefinitely for a frame to fill: when no full frame exists and the
// longest VOQ has reached a threshold T, that VOQ's packets are padded with
// fake cells up to a full frame of N and spread anyway. Fake cells consume
// switch capacity (their frame's first- and second-fabric connections) but
// are never delivered, exactly as in the original scheme.
//
// The threshold trades accumulation delay against wasted capacity; the
// paper leaves its value unspecified. The constructor therefore accepts
// either a fixed threshold or AdaptiveThreshold, which tracks the measured
// input load (see its doc comment); the ablation bench sweeps fixed values
// to expose the tradeoff.
package pf

import (
	"sprinklers/internal/midstage"
	"sprinklers/internal/sim"
)

// AdaptiveThreshold selects the load-tracking padding threshold: the
// threshold at input i follows ceil(rho_i * N) + 1 where rho_i is an EWMA
// estimate of the input's arrival rate. A threshold sweep (see the ablation
// bench) shows the delay-minimizing fixed threshold is approximately rho*N
// at every load; tracking it keeps the PF delay curve flat across loads,
// which is the behaviour the paper's Figure 6 reports for PF. Pass it (or
// 0) to New to enable adaptation.
const AdaptiveThreshold = 0

// Switch is a Padded Frames switch: the shared full-frame spreader plus
// the padding policy.
type Switch struct {
	n         int
	threshold int // 0 = adaptive
	t         sim.Slot
	// Adaptive-threshold state: per-input arrival counts and EWMA load.
	arrivals []int64
	loadEst  []float64
	sp       *midstage.Spreader
}

// New builds an n-port Padded Frames switch. threshold in [1, N] fixes the
// padding threshold; AdaptiveThreshold (0) tracks the measured input load,
// which is the recommended configuration.
func New(n, threshold int) *Switch {
	if threshold < 0 || threshold > n {
		panic("pf: threshold must be AdaptiveThreshold or in [1, N]")
	}
	return &Switch{
		n:         n,
		threshold: threshold,
		sp:        midstage.NewSpreader(n),
		arrivals:  make([]int64, n),
		loadEst:   make([]float64, n),
	}
}

// N implements sim.Switch.
func (s *Switch) N() int { return s.n }

// Now implements sim.Switch.
func (s *Switch) Now() sim.Slot { return s.t }

// Backlog implements sim.Switch (real packets only).
func (s *Switch) Backlog() int { return s.sp.Backlog() }

// PaddingInjected returns the number of fake cells spread so far.
func (s *Switch) PaddingInjected() int64 { return s.sp.PaddingInjected() }

// Arrive implements sim.Switch.
func (s *Switch) Arrive(p sim.Packet) {
	s.sp.Arrive(p)
	s.arrivals[p.In]++
}

// Step implements sim.Switch.
func (s *Switch) Step(deliver sim.DeliverFunc) {
	s.sp.Step(s.t, deliver, s.padTarget)
	if s.threshold == AdaptiveThreshold {
		s.updateLoadEstimates(s.t)
	}
	s.t++
}

// loadWindow is the adaptive-threshold measurement window in units of N
// slots.
const loadWindow = 16

// updateLoadEstimates closes a measurement window when due.
func (s *Switch) updateLoadEstimates(t sim.Slot) {
	window := sim.Slot(loadWindow * s.n)
	if (t+1)%window != 0 {
		return
	}
	const gamma = 0.25
	for i := 0; i < s.n; i++ {
		measured := float64(s.arrivals[i]) / float64(window)
		s.arrivals[i] = 0
		s.loadEst[i] = (1-gamma)*s.loadEst[i] + gamma*measured
	}
}

// thresholdFor returns the padding threshold in force at input i.
func (s *Switch) thresholdFor(i int) int {
	if s.threshold != AdaptiveThreshold {
		return s.threshold
	}
	t := int(s.loadEst[i]*float64(s.n)) + 2
	if t > s.n-1 {
		t = s.n - 1
	}
	if t < 1 {
		t = 1
	}
	return t
}

// padTarget is the padding policy, asked when input i is idle and holds no
// full frame: pad the longest VOQ if it crossed the threshold. The walk over
// all N VOQs is the one O(N) scan left on an idle input, and a longest-queue
// search has no bit-set shortcut. It is about a quarter of a PF Step's CPU
// time at N = 32 and load 0.9 (BenchmarkBaselineSizeSweepStep/pf/N-32).
func (s *Switch) padTarget(i int) int {
	longest, best := -1, 0
	for j := 0; j < s.n; j++ {
		if l := s.sp.VOQLen(i, j); l > best {
			best, longest = l, j
		}
	}
	if best < s.thresholdFor(i) {
		return -1
	}
	return longest
}
