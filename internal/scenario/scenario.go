// Package scenario holds the built-in dynamic scenarios and the analysis of
// their trajectories. A scenario is a registered event timeline — rate
// drift, flash crowds, hotspot migration, ingress-link failure and
// recovery, mid-run load steps — that turns a static simulation point into
// a time-varying one; the paper's Sec. 3.5 adaptive stripe resizing only
// matters under exactly these conditions, and a steady-state sweep cannot
// exercise it.
//
// Scenarios self-register in internal/registry under typed option schemas,
// like architectures and workloads, so experiment.Spec can name them and
// sweep -list can catalog them. The builtins live in builtin.go.
// experiment.RunPoint replays a timeline through traffic.Dynamic with
// windowed collection; AnalyzeRecovery reads the resulting trajectory.
package scenario

import "sprinklers/internal/stats"

// Recovery summarizes a trajectory's response to a disturbance: the
// pre-event baseline (the first window's mean delay), the worst window,
// whether the series ever left the recovery band max(1.5 x baseline,
// baseline + 1 slot) at all, and — if it did — when it settled back.
type Recovery struct {
	// Baseline is the first window's mean delay, in slots.
	Baseline float64
	// Peak is the largest window mean delay and PeakWindow its index.
	Peak       float64
	PeakWindow int
	// Disturbed reports whether the peak exceeded the recovery threshold.
	// A series that never left its baseline band — the best possible
	// outcome, e.g. an adaptive switch absorbing a crowd entirely — has
	// Disturbed false and carries no settling information; comparing
	// RecoveredWindow across series is only meaningful when both were
	// disturbed.
	Disturbed bool
	// Recovered reports whether a disturbed series settled back under the
	// threshold after its peak; RecoveredWindow is the first window that
	// did. Both are zero for undisturbed series.
	Recovered       bool
	RecoveredWindow int
}

// AnalyzeRecovery computes the Recovery summary of a trajectory.
func AnalyzeRecovery(ws []stats.WindowPoint) Recovery {
	var r Recovery
	if len(ws) == 0 {
		return r
	}
	r.Baseline = ws[0].MeanDelay
	for i, w := range ws {
		if w.MeanDelay > r.Peak {
			r.Peak = w.MeanDelay
			r.PeakWindow = i
		}
	}
	threshold := 1.5 * r.Baseline
	if min := r.Baseline + 1; threshold < min {
		threshold = min
	}
	if r.Peak <= threshold {
		return r // never left the baseline band; nothing to recover from
	}
	r.Disturbed = true
	// The settling scan starts after the peak: the peak window itself
	// crossed the threshold by construction, and counting it as recovery
	// would report a flatter (lower, later) peak as a slower recovery.
	for i := r.PeakWindow + 1; i < len(ws); i++ {
		if ws[i].MeanDelay <= threshold {
			r.Recovered = true
			r.RecoveredWindow = i
			break
		}
	}
	return r
}
