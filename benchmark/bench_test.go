package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// exactCounts are the per-layer metrics that count work instead of timing
// it: two runs of the same code must report them identically.
var exactCounts = []string{
	"experiment.cache_hits", "experiment.cache_misses", "experiment.points_computed",
	"experiment.replicas_computed", "experiment.slots_simulated", "experiment.checkpoint_bytes",
	"experiment.golden_match",
	"resultcache.puts", "resultcache.gets", "resultcache.bytes_per_entry",
	"service.http_requests", "service.events_streamed",
	"cluster.jobs_dispatched", "cluster.jobs_retried", "cluster.jobs_redispatched",
	"cluster.local_fallbacks", "cluster.jobs_stolen", "cluster.speculative_wasted",
}

// runAll runs every workload once at a fiftieth of the size in dir and
// returns the result line of each, in workload order.
func runAll(t *testing.T, args ...string) []result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append([]string{"-scale", "0.02", "-seconds", "0"}, args...)
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v exited %d:\n%s", args, code, stderr.String())
	}
	var out []result
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, `{"correct"`) {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		out = append(out, r)
	}
	if len(out) != len(workloads) {
		t.Fatalf("benchmark %v printed %d result lines, want %d:\n%s", args, len(out), len(workloads), stdout.String())
	}
	return out
}

// checkNames asserts a result carries exactly the metrics defs names, each
// with its unit, and that the run was correct.
func checkNames(t *testing.T, workload string, r result, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d defined", workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", workload, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.Name, v.Unit, d.Unit)
		}
	}
}

// TestBenchmark runs the whole benchmark small: the untraced pass once and
// the traced pass twice, from a scratch directory.
func TestBenchmark(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // the next test would fail loudly
	goroutines := runtime.NumGoroutine()

	for i, r := range runAll(t, "-trace", "0") {
		checkNames(t, workloads[i].Name, r, endToEnd)
		for _, d := range endToEnd {
			if r.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", workloads[i].Name, d.Name, r.Metrics[d.Name].Value)
			}
		}
	}

	first := runAll(t, "-trace", "1", "-trace-out", filepath.Join(dir, "spans.json"))
	second := runAll(t, "-trace", "1")
	for i, w := range workloads {
		checkNames(t, w.Name, first[i], perLayer)
		for _, name := range exactCounts {
			if a, b := first[i].Metrics[name].Value, second[i].Metrics[name].Value; a != b {
				t.Errorf("%s: %s is %g in one run and %g in the next; a count has to repeat", w.Name, name, a, b)
			}
		}
	}
	byName := map[string]result{}
	for i, w := range workloads {
		byName[w.Name] = first[i]
	}
	if v := byName["grid-warm"].Metrics["experiment.slots_simulated"].Value; v != 0 {
		t.Errorf("grid-warm simulated %g slots per study, want 0", v)
	}
	grid := gridSpecs(1, 0.02)[0].WithDefaults()
	points, jobs := float64(grid.NumPoints()), float64(grid.NumPoints()*grid.Replicas)
	if v := byName["grid-warm"].Metrics["experiment.cache_hits"].Value; v != points {
		t.Errorf("grid-warm hit the cache %g times per study, want %g", v, points)
	}
	cl := byName["grid-cluster"].Metrics
	if v := cl["cluster.jobs_dispatched"].Value; v != jobs {
		t.Errorf("grid-cluster dispatched %g jobs per study, want %g", v, jobs)
	}
	for _, name := range []string{"cluster.jobs_retried", "cluster.jobs_redispatched", "cluster.local_fallbacks",
		"cluster.jobs_stolen", "cluster.speculative_wasted"} {
		if v := cl[name].Value; v != 0 {
			t.Errorf("grid-cluster: %s is %g, want 0", name, v)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "spans.json")); err != nil || fi.Size() == 0 {
		t.Errorf("-trace-out wrote no spans: %v", err)
	}

	// Everything the runs started is gone: no round directory, no server,
	// no goroutine. Closed connections take a moment to unwind.
	left, err := filepath.Glob(filepath.Join(dir, tmpRoot, "*"))
	if err != nil || len(left) != 0 {
		t.Errorf("working directories left behind: %v %v", left, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the runs, %d after:\n%s", goroutines, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestManifest holds BENCHMARK.json to the tables the benchmark emits from,
// and the names to the driver's limits.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var generated bytes.Buffer
	if code := printManifest(&generated); code != 0 {
		t.Fatal("printManifest failed")
	}
	if !bytes.Equal(committed, generated.Bytes()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the driver's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		use(d.Name)
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the driver's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		use(d.Name)
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the driver's limits",
			len(workloads), len(endToEnd), len(perLayer))
	}
}

// TestVerdict pins -compare's rules on hand-made runs of a lower-is-better
// metric with a 10 % bound.
func TestVerdict(t *testing.T) {
	d := metricDef{Name: "study_wall_s", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.8, 1.3, 0.9, 1.2, 1.0, 0.7, 1.4, 1.1, 0.85, 1.25}
	cases := []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"same runs", steady, steady, "within bound"},
		{"a fifth faster", steady, shifted(0.8), "improved"},
		{"five percent slower", steady, shifted(1.05), "within bound"},
		{"a fifth slower", steady, shifted(1.2), "REGRESSED"},
		{"too noisy to tell", noisy, shifted(1.05), "unresolved (spread wider than the bound)"},
		{"noisy parent, every run better", noisy, shifted(0.5), "improved"},
	}
	for _, c := range cases {
		if got := verdict(d, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
