package experiment

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sprinklers/internal/bound"
	"sprinklers/internal/markov"
)

// smokeSpec is a seconds-scale replicated study (the same shape as the CI
// "smoke" builtin, smaller).
func smokeSpec(replicas int) Spec {
	return Spec{
		Name:       "runner-test",
		Kind:       SimStudy,
		Algorithms: Algs(Sprinklers, LoadBalanced),
		Traffic:    Traffics(UniformTraffic),
		Loads:      []float64{0.4, 0.8},
		Sizes:      []int{8},
		Replicas:   replicas,
		Slots:      2000,
		Seed:       1,
	}
}

func TestRunStudyReplicaAggregation(t *testing.T) {
	rs, err := RunStudy(context.Background(), smokeSpec(3), StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("%d results", len(rs))
	}
	for _, r := range rs {
		if r.Replicas != 3 {
			t.Errorf("%s: replicas %d", r.PointKey, r.Replicas)
		}
		if r.MeanDelay <= 0 {
			t.Errorf("%s: mean delay %v", r.PointKey, r.MeanDelay)
		}
		if r.DelayCI95 <= 0 {
			t.Errorf("%s: replica seeds differ, CI half-width should be positive, got %v", r.PointKey, r.DelayCI95)
		}
		if !(r.Throughput > 0 && r.Throughput <= 1) {
			t.Errorf("%s: throughput %v", r.PointKey, r.Throughput)
		}
		if r.Delivered == 0 {
			t.Errorf("%s: delivered nothing", r.PointKey)
		}
	}
}

// TestRunStudyCIShrinksWithReplicas: the 95% interval is t-scaled by
// 1/sqrt(n), so growing the replica count must tighten it substantially.
func TestRunStudyCIShrinksWithReplicas(t *testing.T) {
	narrow := func(replicas int) float64 {
		s := smokeSpec(replicas)
		s.Loads = []float64{0.8}
		s.Algorithms = Algs(LoadBalanced)
		rs, err := RunStudy(context.Background(), s, StudyConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return rs[0].DelayCI95
	}
	w2, w8 := narrow(2), narrow(8)
	if w2 <= 0 || w8 <= 0 {
		t.Fatalf("degenerate widths: %v, %v", w2, w8)
	}
	if w8 >= w2 {
		t.Fatalf("CI width did not shrink: 2 replicas %v, 8 replicas %v", w2, w8)
	}
}

func TestRunStudyDeterministic(t *testing.T) {
	a, err := RunStudy(context.Background(), smokeSpec(3), StudyConfig{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStudy(context.Background(), smokeSpec(3), StudyConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("study not deterministic across parallelism:\n%+v\n%+v", a, b)
	}
}

// TestRunStudyStopsInFlightJobs: when a point fails or HaltAfterPoints
// stops a study, RunStudy cancels the jobs still in flight instead of
// waiting for them to finish. Point 0 fails (or completes) at once and
// every other job blocks until its context is canceled, so a RunStudy that
// only waits returns when the outer deadline fires.
func TestRunStudyStopsInFlightJobs(t *testing.T) {
	boom := errors.New("replica failed")
	for _, kind := range []SpecKind{SimStudy, AdaptiveStudy} {
		for _, fail := range []bool{true, false} {
			name := string(kind) + "/halt"
			if fail {
				name = string(kind) + "/point-error"
			}
			t.Run(name, func(t *testing.T) {
				spec := adaptiveSpec(t)
				if kind == SimStudy {
					spec.Kind, spec.Adaptive = SimStudy, nil
				}
				first := spec.WithDefaults().Points()[0]
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				cfg := StudyConfig{
					Parallelism: 4,
					ReplicaRunner: func(ctx context.Context, _ Spec, key PointKey, _ int) (Point, error) {
						switch {
						case key != first:
							<-ctx.Done()
							return Point{}, ctx.Err()
						case fail:
							return Point{}, boom
						}
						return Point{MeanDelay: 1, Throughput: 1}, nil
					},
				}
				want := boom
				if !fail {
					cfg.HaltAfterPoints, want = 1, ErrHalted
				}
				if _, err := RunStudy(ctx, spec, cfg); !errors.Is(err, want) {
					t.Fatalf("RunStudy: %v, want %v", err, want)
				}
				if err := ctx.Err(); err != nil {
					t.Fatalf("RunStudy returned only after the outer context ended (%v): it waited for its in-flight jobs", err)
				}
			})
		}
	}
}

func TestRunStudyResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	resumed := filepath.Join(dir, "resumed.jsonl")
	spec := smokeSpec(3)

	if _, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: full}); err != nil {
		t.Fatal(err)
	}
	// Interrupted run: halt after 2 of 4 points (a deterministic kill).
	_, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: resumed, HaltAfterPoints: 2})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	// Simulate dying mid-write: a partial trailing record.
	f, err := os.OpenFile(resumed, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"algorithm":"spr`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Resume and finish.
	rs, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("resumed study returned %d points", len(rs))
	}
	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("resumed results differ from uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s", a, b)
	}
}

// TestRunStudyResumeSkipsRecorded proves recorded points are loaded, not
// re-simulated: a sentinel edited into the checkpoint must survive the
// resumed run.
func TestRunStudyResumeSkipsRecorded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	spec := smokeSpec(2)
	_, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path, HaltAfterPoints: 1})
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), `"mean_delay":`, `"mean_delay":12345e2,"x_mean_delay":`, 1)
	edited = strings.Replace(edited, `"x_mean_delay":`, `"ignore":`, 1)
	if edited == string(data) {
		t.Fatal("sentinel edit failed")
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].MeanDelay != 12345e2 {
		t.Fatalf("point 0 was re-simulated: mean delay %v, want the 1234500 sentinel", rs[0].MeanDelay)
	}
}

func TestRunStudyResumeRejectsMismatchedSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.jsonl")
	if _, err := RunStudy(context.Background(), smokeSpec(2), StudyConfig{ResultsPath: path}); err != nil {
		t.Fatal(err)
	}
	other := smokeSpec(2)
	other.Loads = []float64{0.5, 0.7} // different grid, same file
	if _, err := RunStudy(context.Background(), other, StudyConfig{ResultsPath: path}); err == nil {
		t.Fatal("mismatched results file should be rejected")
	}
	// Same grid but different run parameters is still a different study:
	// the header must catch slots/seed/replicas drift the keys cannot.
	sameGrid := smokeSpec(2)
	sameGrid.Slots = 9999
	if _, err := RunStudy(context.Background(), sameGrid, StudyConfig{ResultsPath: path}); err == nil {
		t.Fatal("results file from different slots should be rejected")
	}
	sameGrid = smokeSpec(3)
	if _, err := RunStudy(context.Background(), sameGrid, StudyConfig{ResultsPath: path}); err == nil {
		t.Fatal("results file from different replica count should be rejected")
	}
	sameGrid = smokeSpec(2)
	sameGrid.Seed = 42
	if _, err := RunStudy(context.Background(), sameGrid, StudyConfig{ResultsPath: path}); err == nil {
		t.Fatal("results file from different seed should be rejected")
	}
}

func TestRunStudyProgress(t *testing.T) {
	var dones []int
	spec := smokeSpec(2)
	_, err := RunStudy(context.Background(), spec, StudyConfig{
		Progress: func(done, total int, r PointResult) {
			if total != 4 {
				t.Errorf("total %d", total)
			}
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dones, []int{1, 2, 3, 4}) {
		t.Fatalf("progress sequence %v", dones)
	}
}

func TestRunStudyBurstGrid(t *testing.T) {
	spec := smokeSpec(1)
	spec.Algorithms = Algs(Sprinklers)
	spec.Loads = []float64{0.5}
	spec.Bursts = []float64{0, 8}
	rs, err := RunStudy(context.Background(), spec, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Burst != 0 || rs[1].Burst != 8 {
		t.Fatalf("burst grid: %+v", rs)
	}
	// On/off arrivals at the same long-run rate queue more than Bernoulli.
	if rs[1].MeanDelay <= rs[0].MeanDelay {
		t.Errorf("bursty delay %v not above Bernoulli delay %v", rs[1].MeanDelay, rs[0].MeanDelay)
	}
}

func TestRunStudyAnalyticKinds(t *testing.T) {
	m := Spec{Kind: MarkovStudy, Loads: []float64{0.9}, Sizes: []int{8, 32}}
	rs, err := RunStudy(context.Background(), m, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		want := markov.MeanQueueClosedForm(r.N, 0.9)
		if math.Abs(r.MeanDelay-want) > 1e-12 {
			t.Errorf("markov N=%d: %v want %v", r.N, r.MeanDelay, want)
		}
	}
	b := Spec{Kind: BoundStudy, Loads: []float64{0.5, 0.95}, Sizes: []int{1024}}
	brs, err := RunStudy(context.Background(), b, StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if brs[0].QueueOverload != "0" {
		t.Errorf("below the feasibility threshold the bound is exactly 0, got %q", brs[0].QueueOverload)
	}
	want := bound.FormatLog(bound.LogQueueOverload(1024, 0.95))
	if brs[1].QueueOverload != want {
		t.Errorf("bound N=1024 rho=0.95: %q want %q", brs[1].QueueOverload, want)
	}
	// Analytic studies checkpoint and resume like simulations.
	dir := t.TempDir()
	path := filepath.Join(dir, "b.jsonl")
	if _, err := RunStudy(context.Background(), b, StudyConfig{ResultsPath: path, HaltAfterPoints: 1}); !errors.Is(err, ErrHalted) {
		t.Fatalf("want ErrHalted, got %v", err)
	}
	brs2, err := RunStudy(context.Background(), b, StudyConfig{ResultsPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(brs, brs2) {
		t.Fatalf("analytic resume mismatch:\n%+v\n%+v", brs, brs2)
	}
}

func TestStudyRenderers(t *testing.T) {
	rs, err := RunStudy(context.Background(), smokeSpec(3), StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var curves, detail, csv strings.Builder
	RenderStudyCurves(&curves, rs)
	RenderStudyDetail(&detail, rs)
	if err := RenderStudyCSV(&csv, rs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(curves.String(), "±") {
		t.Errorf("replicated study curves missing confidence intervals:\n%s", curves.String())
	}
	if !strings.Contains(curves.String(), "sprinklers") {
		t.Errorf("curves missing algorithm column:\n%s", curves.String())
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "algorithm,traffic,scenario,n,load,burst,replicas") {
		t.Fatalf("CSV header: %s", lines[0])
	}
	if !strings.Contains(detail.String(), "uniform") {
		t.Errorf("detail output missing traffic kind")
	}
	RenderStudyCurves(&curves, nil) // must not panic on empty input
}
