package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareReports implements -compare: the arguments are pairs of report
// files (old new [old new ...]) written by -out. Runs are paired in order
// per workload across all the pairs given, and every (workload, end-to-end
// metric) gets both medians, both quartile ranges and one verdict.
func compareReports(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || len(args)%2 != 0 {
		fmt.Fprintln(stderr, "benchmark: -compare takes pairs of report files: old.json new.json [old2.json new2.json ...]")
		return 2
	}
	var olds, news []runRecord
	scale := 0.0
	for i, path := range args {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if i == 0 {
			scale = rep.Scale
		}
		if rep.Scale != scale {
			fmt.Fprintf(stderr, "benchmark: %s was measured at scale %g, %s at scale %g: not comparable\n", args[0], scale, path, rep.Scale)
			return 1
		}
		if i%2 == 0 {
			olds = append(olds, rep.Runs...)
		} else {
			news = append(news, rep.Runs...)
		}
	}
	fmt.Fprintf(stdout, "%-16s %-13s %12s %12s %12s %12s %6s  %s\n",
		"workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "pairs", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			o, n := values(olds, w.Name, d.Name), values(news, w.Name, d.Name)
			pairs := min(len(o), len(n))
			if pairs == 0 {
				continue
			}
			o, n = o[:pairs], n[:pairs]
			so, sn := sortedCopy(o), sortedCopy(n)
			fmt.Fprintf(stdout, "%-16s %-13s %12.6g %5.4g..%-6.4g %12.6g %5.4g..%-6.4g %6d  %s\n",
				w.Name, d.Name, quantile(so, 0.5), quantile(so, 0.25), quantile(so, 0.75),
				quantile(sn, 0.5), quantile(sn, 0.25), quantile(sn, 0.75), pairs, verdict(d, o, n))
		}
	}
	return 0
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// values lists one metric of one workload's untraced runs, in run order.
func values(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges paired runs of one metric by the choosing-metrics rules.
// A gain needs the change to win at least nine tenths of the pairs (ties
// count for neither side) and the medians to differ by more than the
// parent's own quartile range. Otherwise the change is within bound unless
// its median is worse by more than the bound; and where either side's
// spread is wider than the bound the metric is unresolved, not unchanged,
// unless every run of the change is better than every run of the parent.
func verdict(d metricDef, parent, change []float64) string {
	sign := 1.0 // after this, smaller is better
	if d.Better == "higher" {
		sign = -1
	}
	wins := 0
	for i := range parent {
		if sign*change[i] < sign*parent[i] {
			wins++
		}
	}
	so, sn := sortedCopy(parent), sortedCopy(change)
	mo, mn := quantile(so, 0.5), quantile(sn, 0.5)
	iqr := quantile(so, 0.75) - quantile(so, 0.25)
	// Every run of the change better than every run of the parent.
	dominates := sn[len(sn)-1] < so[0]
	if sign < 0 {
		dominates = sn[0] > so[len(so)-1]
	}
	switch {
	case float64(wins) >= 0.9*float64(len(parent)) && sign*(mo-mn) > iqr:
		return "improved"
	case !dominates && (iqrShare(parent) > d.Bound || iqrShare(change) > d.Bound):
		return "unresolved (spread wider than the bound)"
	case mo != 0 && sign*(mn-mo)/math.Abs(mo) > d.Bound:
		return "REGRESSED"
	default:
		return "within bound"
	}
}
