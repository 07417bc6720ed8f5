package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"sprinklers/internal/bound"
	"sprinklers/internal/stats"
)

// Renderers for study results (PointResult).

// padLeft right-aligns s in a w-rune field ("±" is multibyte, so byte-width
// fmt padding would misalign confidence-interval cells).
func padLeft(s string, w int) string {
	if n := utf8.RuneCountInString(s); n < w {
		return strings.Repeat(" ", w-n) + s
	}
	return s
}

// cell renders a point's delay as "mean" or "mean±half" when the study has
// enough replicas for a confidence interval.
func cell(r PointResult) string {
	if r.Replicas > 1 {
		return fmt.Sprintf("%.1f±%.1f", r.MeanDelay, r.DelayCI95)
	}
	return fmt.Sprintf("%.1f", r.MeanDelay)
}

type curveGroup struct {
	traffic  TrafficKind
	scenario ScenarioKind
	n        int
	burst    float64
}

// RenderStudyCurves writes delay-versus-load tables, one per (traffic, size,
// burst) combination, with a column per algorithm. With more than one
// replica per point every cell carries its 95% confidence half-width.
func RenderStudyCurves(w io.Writer, rs []PointResult) {
	if len(rs) == 0 {
		return
	}
	var groups []curveGroup
	byGroup := map[curveGroup][]PointResult{}
	for _, r := range rs {
		g := curveGroup{r.Traffic, r.Scenario, r.N, r.Burst}
		if _, ok := byGroup[g]; !ok {
			groups = append(groups, g)
		}
		byGroup[g] = append(byGroup[g], r)
	}
	multi := len(groups) > 1
	for gi, g := range groups {
		if gi > 0 {
			fmt.Fprintln(w)
		}
		if multi || g.burst > 0 || g.scenario != "" {
			fmt.Fprintf(w, "traffic=%s N=%d", g.traffic, g.n)
			if g.burst > 0 {
				fmt.Fprintf(w, " burst=%.4g", g.burst)
			}
			if g.scenario != "" {
				fmt.Fprintf(w, " scenario=%s", g.scenario)
			}
			fmt.Fprintln(w)
		}
		pts := byGroup[g]
		var algs []Algorithm
		seen := map[Algorithm]bool{}
		loadsSet := map[float64]bool{}
		byKey := map[string]PointResult{}
		for _, p := range pts {
			if !seen[p.Algorithm] {
				seen[p.Algorithm] = true
				algs = append(algs, p.Algorithm)
			}
			loadsSet[p.Load] = true
			byKey[fmt.Sprintf("%s/%v", p.Algorithm, p.Load)] = p
		}
		loads := make([]float64, 0, len(loadsSet))
		for l := range loadsSet {
			loads = append(loads, l)
		}
		sort.Float64s(loads)

		fmt.Fprintf(w, "%-6s", "load")
		for _, a := range algs {
			fmt.Fprint(w, " ", padLeft(string(a), 16))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%s\n", strings.Repeat("-", 6+17*len(algs)))
		for _, l := range loads {
			fmt.Fprintf(w, "%-6.2f", l)
			for _, a := range algs {
				p, ok := byKey[fmt.Sprintf("%s/%v", a, l)]
				if !ok {
					fmt.Fprint(w, " ", padLeft("-", 16))
					continue
				}
				fmt.Fprint(w, " ", padLeft(cell(p), 16))
			}
			fmt.Fprintln(w)
		}
	}
}

// RenderStudyCSV writes one CSV row per grid point, including the replica
// count and confidence half-widths, ready for external plotting.
func RenderStudyCSV(w io.Writer, rs []PointResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"algorithm", "traffic", "scenario", "n", "load", "burst", "replicas",
		"mean_delay_slots", "delay_ci95", "p99_delay_slots", "max_delay_slots",
		"throughput", "throughput_ci95", "reordered", "delivered",
		"queue_overload", "switch_overload",
		"twin_delay", "twin_divergence", "refine_round",
	}); err != nil {
		return err
	}
	for _, r := range rs {
		rec := []string{
			string(r.Algorithm),
			string(r.Traffic),
			string(r.Scenario),
			strconv.Itoa(r.N),
			strconv.FormatFloat(r.Load, 'f', 4, 64),
			strconv.FormatFloat(r.Burst, 'f', 2, 64),
			strconv.Itoa(r.Replicas),
			strconv.FormatFloat(r.MeanDelay, 'f', 3, 64),
			strconv.FormatFloat(r.DelayCI95, 'f', 3, 64),
			strconv.FormatFloat(r.P99Delay, 'f', 1, 64),
			strconv.FormatFloat(r.MaxDelay, 'f', 0, 64),
			strconv.FormatFloat(r.Throughput, 'f', 6, 64),
			strconv.FormatFloat(r.ThroughputCI95, 'f', 6, 64),
			strconv.FormatInt(r.Reordered, 10),
			strconv.FormatInt(r.Delivered, 10),
			r.QueueOverload,
			r.SwitchOverload,
			strconv.FormatFloat(r.TwinDelay, 'f', 3, 64),
			strconv.FormatFloat(r.TwinDivergence, 'f', 4, 64),
			strconv.Itoa(r.RefineRound),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderStudyDetail writes per-point diagnosis rows (tails, throughput with
// CI, reordering). When any point carries adaptive-refinement data, three
// twin columns are appended: the calibrated analytic-twin prediction, its
// relative divergence from the simulated mean, and the refinement round that
// inserted the point (seed-grid points show dashes).
func RenderStudyDetail(w io.Writer, rs []PointResult) {
	adaptive := false
	for _, r := range rs {
		if r.RefineRound > 0 || r.TwinDelay != 0 || r.TwinDivergence != 0 {
			adaptive = true
			break
		}
	}
	fmt.Fprintf(w, "%-18s %-10s %-12s %5s %6s %6s %4s %16s %10s %10s %16s %10s",
		"algorithm", "traffic", "scenario", "N", "load", "burst", "reps",
		"mean-delay", "p99-delay", "max-delay", "thruput", "reordered")
	if adaptive {
		fmt.Fprintf(w, " %10s %8s %5s", "twin-delay", "twin-div", "round")
	}
	fmt.Fprintln(w)
	for _, r := range rs {
		sc := string(r.Scenario)
		if sc == "" {
			sc = "-"
		}
		fmt.Fprintf(w, "%-18s %-10s %-12s %5d %6.2f %6.2f %4d %s %10.1f %10.0f %s %10d",
			r.Algorithm, r.Traffic, sc, r.N, r.Load, r.Burst, r.Replicas,
			padLeft(cell(r), 16), r.P99Delay, r.MaxDelay,
			padLeft(fmt.Sprintf("%.4f±%.4f", r.Throughput, r.ThroughputCI95), 16),
			r.Reordered)
		if adaptive {
			if r.RefineRound > 0 {
				fmt.Fprintf(w, " %10.1f %8.4f %5d", r.TwinDelay, r.TwinDivergence, r.RefineRound)
			} else {
				fmt.Fprintf(w, " %10s %8s %5s", "-", "-", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

type trajGroup struct {
	traffic  TrafficKind
	scenario ScenarioKind
	n        int
	burst    float64
	load     float64
}

// RenderTrajectory writes the windowed time series of every windowed point
// as delay-versus-window tables, one per (traffic, scenario, size, burst,
// load) combination with a column per algorithm, followed by a recovery
// summary per series (baseline, peak and settling window). Points without
// windows are skipped.
func RenderTrajectory(w io.Writer, rs []PointResult) {
	var groups []trajGroup
	byGroup := map[trajGroup][]PointResult{}
	for _, r := range rs {
		if len(r.Windows) == 0 {
			continue
		}
		g := trajGroup{r.Traffic, r.Scenario, r.N, r.Burst, r.Load}
		if _, ok := byGroup[g]; !ok {
			groups = append(groups, g)
		}
		byGroup[g] = append(byGroup[g], r)
	}
	for gi, g := range groups {
		if gi > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "traffic=%s N=%d load=%.4g", g.traffic, g.n, g.load)
		if g.burst > 0 {
			fmt.Fprintf(w, " burst=%.4g", g.burst)
		}
		if g.scenario != "" {
			fmt.Fprintf(w, " scenario=%s", g.scenario)
		}
		fmt.Fprintln(w)
		pts := byGroup[g]
		fmt.Fprintf(w, "%-6s %-16s", "window", "slots")
		for _, p := range pts {
			fmt.Fprint(w, " ", padLeft(string(p.Algorithm), 16))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%s\n", strings.Repeat("-", 23+17*len(pts)))
		// Series in one group normally share a window grid, but results
		// merged from runs with different "windows" settings may be ragged;
		// render the longest series and dash the gaps rather than panic.
		rows, rowSrc := 0, 0
		for pi, p := range pts {
			if len(p.Windows) > rows {
				rows, rowSrc = len(p.Windows), pi
			}
		}
		for wi := 0; wi < rows; wi++ {
			win := pts[rowSrc].Windows[wi]
			fmt.Fprintf(w, "%-6d %-16s", win.Window, fmt.Sprintf("[%d,%d)", win.Start, win.End))
			for _, p := range pts {
				if wi < len(p.Windows) {
					fmt.Fprint(w, " ", padLeft(fmt.Sprintf("%.1f", p.Windows[wi].MeanDelay), 16))
				} else {
					fmt.Fprint(w, " ", padLeft("-", 16))
				}
			}
			fmt.Fprintln(w)
		}
		for _, p := range pts {
			rec := analyzeRecovery(p.Windows)
			fmt.Fprintf(w, "%-20s baseline %.1f  peak %.1f (w%d)",
				p.Algorithm, rec.Baseline, rec.Peak, rec.PeakWindow)
			switch {
			case !rec.Disturbed:
				fmt.Fprintln(w, "  no significant excursion")
			case rec.Recovered:
				fmt.Fprintf(w, "  recovered w%d\n", rec.RecoveredWindow)
			default:
				fmt.Fprintln(w, "  not recovered")
			}
		}
	}
}

// recovery summarizes a trajectory's response to a disturbance: the
// pre-event baseline (the first window's mean delay), the worst window,
// whether the series ever left the recovery band max(1.5 x baseline,
// baseline + 1 slot) at all, and — if it did — when it settled back.
type recovery struct {
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

// analyzeRecovery computes the recovery summary of a trajectory.
func analyzeRecovery(ws []stats.WindowPoint) recovery {
	var r recovery
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

// RenderTrajectoryCSV writes one CSV row per (point, window) pair — the
// machine-readable trajectory behind RenderTrajectory. Points without
// windows contribute no rows.
func RenderTrajectoryCSV(w io.Writer, rs []PointResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"algorithm", "traffic", "scenario", "n", "load", "burst",
		"window", "start", "end", "mean_delay_slots", "p99_delay_slots",
		"offered", "delivered", "throughput", "backlog", "reordered",
	}); err != nil {
		return err
	}
	for _, r := range rs {
		for _, win := range r.Windows {
			rec := []string{
				string(r.Algorithm),
				string(r.Traffic),
				string(r.Scenario),
				strconv.Itoa(r.N),
				strconv.FormatFloat(r.Load, 'f', 4, 64),
				strconv.FormatFloat(r.Burst, 'f', 2, 64),
				strconv.Itoa(win.Window),
				strconv.FormatInt(int64(win.Start), 10),
				strconv.FormatInt(int64(win.End), 10),
				strconv.FormatFloat(win.MeanDelay, 'f', 3, 64),
				strconv.FormatFloat(win.P99Delay, 'f', 1, 64),
				strconv.FormatInt(win.Offered, 10),
				strconv.FormatInt(win.Delivered, 10),
				strconv.FormatFloat(win.Throughput, 'f', 6, 64),
				strconv.FormatFloat(win.Backlog, 'f', 2, 64),
				strconv.FormatInt(win.Reordered, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderMarkovTable writes a markov study (Fig. 5) as delay versus switch
// size, one column per load.
func RenderMarkovTable(w io.Writer, rs []PointResult) {
	var ns []int
	var loads []float64
	seenN := map[int]bool{}
	seenL := map[float64]bool{}
	byKey := map[string]PointResult{}
	for _, r := range rs {
		if !seenN[r.N] {
			seenN[r.N] = true
			ns = append(ns, r.N)
		}
		if !seenL[r.Load] {
			seenL[r.Load] = true
			loads = append(loads, r.Load)
		}
		byKey[fmt.Sprintf("%d/%v", r.N, r.Load)] = r
	}
	fmt.Fprintf(w, "%8s", "N")
	for _, l := range loads {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("rho=%.2f", l))
	}
	fmt.Fprintln(w)
	for _, n := range ns {
		fmt.Fprintf(w, "%8d", n)
		for _, l := range loads {
			fmt.Fprintf(w, " %14.1f", byKey[fmt.Sprintf("%d/%v", n, l)].MeanDelay)
		}
		fmt.Fprintln(w)
	}
}

// RenderBoundTable writes a bound study (Table 1) as overload probability
// versus load, one column per switch size. With switchwide it appends the
// union bound over all 2N^2 queues.
func RenderBoundTable(w io.Writer, rs []PointResult, switchwide bool) {
	var ns []int
	var loads []float64
	seenN := map[int]bool{}
	seenL := map[float64]bool{}
	byKey := map[string]PointResult{}
	for _, r := range rs {
		if !seenN[r.N] {
			seenN[r.N] = true
			ns = append(ns, r.N)
		}
		if !seenL[r.Load] {
			seenL[r.Load] = true
			loads = append(loads, r.Load)
		}
		byKey[fmt.Sprintf("%d/%v", r.N, r.Load)] = r
	}
	sort.Ints(ns)
	sort.Float64s(loads)
	header := func() {
		fmt.Fprintf(w, "%-6s", "rho")
		for _, n := range ns {
			fmt.Fprintf(w, " %14s", fmt.Sprintf("N=%d", n))
		}
		fmt.Fprintln(w)
	}
	header()
	for _, l := range loads {
		fmt.Fprintf(w, "%-6.2f", l)
		for _, n := range ns {
			fmt.Fprintf(w, " %14s", byKey[fmt.Sprintf("%d/%v", n, l)].QueueOverload)
		}
		fmt.Fprintln(w)
	}
	if switchwide {
		fmt.Fprintln(w, "\nSwitch-wide union bound (2N^2 queues)")
		header()
		for _, l := range loads {
			fmt.Fprintf(w, "%-6.2f", l)
			for _, n := range ns {
				fmt.Fprintf(w, " %14s", byKey[fmt.Sprintf("%d/%v", n, l)].SwitchOverload)
			}
			fmt.Fprintln(w)
		}
	}
	if len(ns) > 0 {
		fmt.Fprintf(w, "\nTheorem 1: the bound is exactly 0 below load 2/3 + 1/(3N^2) (= %.6f at N=%d).\n",
			bound.FeasibilityThreshold(ns[0]), ns[0])
	}
}
