package experiment

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"sprinklers/internal/registry"
	"sprinklers/internal/stats"
)

// TestEveryRegisteredScenarioReplays: each scenario in the registry must
// replay end-to-end through RunPoint, producing a contiguous window series.
// Iterating the registry keeps a newly registered scenario covered with no
// test changes; TestScenarioEventsWithinHorizon (internal/traffic) checks
// that each one builds a non-empty timeline.
func TestEveryRegisteredScenarioReplays(t *testing.T) {
	for _, sc := range registry.Scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunPoint(Sprinklers, Config{
				N:        8,
				Traffic:  UniformTraffic,
				Scenario: ScenarioKind(sc.Name),
				Slots:    3000,
				Windows:  5,
				Seed:     1,
			}, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Windows) != 5 {
				t.Fatalf("got %d windows, want 5", len(res.Windows))
			}
			var delivered int64
			prevEnd := res.Windows[0].Start
			for _, w := range res.Windows {
				if w.Start != prevEnd {
					t.Fatalf("window %d starts at %d, previous ended at %d", w.Window, w.Start, prevEnd)
				}
				prevEnd = w.End
				delivered += w.Delivered
			}
			if delivered != res.Delivered {
				t.Fatalf("window deliveries sum to %d, run delivered %d", delivered, res.Delivered)
			}
			if res.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

// TestStaticEquivalence: windowed collection without a scenario must
// reproduce the unwindowed point exactly — same arrivals, same deliveries,
// same aggregates — and add only the time series.
func TestStaticEquivalence(t *testing.T) {
	cfg := Config{N: 8, Traffic: UniformTraffic, Slots: 5000, Seed: 3}
	p, err := RunPoint(Sprinklers, cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Windows = 5
	w, err := RunPoint(Sprinklers, cfg, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Windows) != 5 {
		t.Fatalf("got %d windows, want 5", len(w.Windows))
	}
	w.Windows = nil
	if !reflect.DeepEqual(w, p) {
		t.Errorf("windowed point %+v differs from the plain point %+v", w, p)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{
		N: 8, Traffic: UniformTraffic, Scenario: FlashCrowd,
		Slots: 3000, Windows: 6, Seed: 5,
	}
	a, err := RunPoint(Sprinklers, cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPoint(Sprinklers, cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Windows) != 6 || len(b.Windows) != 6 {
		t.Fatalf("got %d and %d windows, want 6", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs between identical runs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}

// TestLinkfailThinsArrivals: with half the ingress links hard-failed, the
// outage windows must see substantially fewer offered packets, and the
// post-recovery windows must climb back.
func TestLinkfailThinsArrivals(t *testing.T) {
	res, err := RunPoint(LoadBalanced, Config{
		N: 8, Traffic: UniformTraffic, Scenario: "linkfail",
		ScenarioOptions: map[string]any{"at": 0.3, "duration": 0.3, "links": 4},
		Slots:           10000, Seed: 7,
	}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ws := res.Windows
	healthy := float64(ws[0].Offered+ws[1].Offered) / 2
	outage := float64(ws[4].Offered)
	recovered := float64(ws[8].Offered+ws[9].Offered) / 2
	if outage > 0.7*healthy {
		t.Errorf("outage window offered %v, healthy %v — links did not fail", outage, healthy)
	}
	if math.Abs(recovered-healthy) > 0.2*healthy {
		t.Errorf("recovered offered %v far from healthy %v", recovered, healthy)
	}
}

func TestAnalyzeRecovery(t *testing.T) {
	mk := func(delays ...float64) []stats.WindowPoint {
		out := make([]stats.WindowPoint, len(delays))
		for i, d := range delays {
			out[i] = stats.WindowPoint{Window: i, MeanDelay: d}
		}
		return out
	}
	r := analyzeRecovery(mk(10, 11, 50, 30, 14, 12))
	if r.Baseline != 10 || r.Peak != 50 || r.PeakWindow != 2 {
		t.Fatalf("baseline/peak wrong: %+v", r)
	}
	if !r.Disturbed || !r.Recovered || r.RecoveredWindow != 4 {
		t.Fatalf("recovery wrong: %+v", r)
	}
	r = analyzeRecovery(mk(10, 11, 50, 40, 35, 30))
	if !r.Disturbed || r.Recovered {
		t.Fatalf("series never settles but Recovered: %+v", r)
	}
	// A series that never leaves the baseline band is not "recovered at
	// its peak" — it was never disturbed at all. (A flatter, later peak
	// must not read as a slower recovery than a tall early one.)
	r = analyzeRecovery(mk(10, 11, 12, 14, 11))
	if r.Disturbed || r.Recovered {
		t.Fatalf("undisturbed series misreported: %+v", r)
	}
	if r.Peak != 14 || r.PeakWindow != 3 {
		t.Fatalf("undisturbed peak wrong: %+v", r)
	}
	r = analyzeRecovery(nil)
	if r.Disturbed || r.Recovered || r.Peak != 0 {
		t.Fatalf("empty series: %+v", r)
	}
}

// TestRunCanceled: a replay whose context is done returns the context's
// error and no partial point, so callers need only the usual cancellation
// check (IsCancellation).
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunPoint(Sprinklers, Config{
		N: 8, Traffic: UniformTraffic, Scenario: FlashCrowd,
		Slots: 1000, Windows: 4, Seed: 1, Context: ctx,
	}, 0.5)
	if !reflect.DeepEqual(res, Point{}) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled replay returned (%+v, %v), want (no point, context.Canceled)", res, err)
	}
}
