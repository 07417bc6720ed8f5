package scenario_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/scenario"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
)

// TestEveryRegisteredScenarioReplays: each scenario in the registry must
// build a valid timeline and replay end-to-end, producing a contiguous
// window series. Iterating the registry keeps a newly registered scenario
// covered with no test changes.
func TestEveryRegisteredScenarioReplays(t *testing.T) {
	for _, sc := range registry.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := scenario.Run(scenario.Config{
				Algorithm: "sprinklers",
				Traffic:   "uniform",
				Scenario:  sc.Name,
				N:         8,
				Load:      0.7,
				Slots:     3000,
				Windows:   5,
				Seed:      1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Windows) != 5 {
				t.Fatalf("got %d windows, want 5", len(res.Windows))
			}
			if len(res.Events) == 0 {
				t.Fatal("scenario produced no events")
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

// TestStaticEquivalence: an empty scenario with windowed collection must
// reproduce the static runner's numbers exactly — same arrivals, same
// deliveries, same aggregates.
func TestStaticEquivalence(t *testing.T) {
	res, err := scenario.Run(scenario.Config{
		Algorithm: "sprinklers",
		Traffic:   "uniform",
		N:         8,
		Load:      0.6,
		Slots:     5000,
		Windows:   5,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := experiment.RunPoint(experiment.Sprinklers, experiment.Config{
		N: 8, Traffic: experiment.UniformTraffic, Slots: 5000, Seed: 3,
	}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay.Mean() != p.MeanDelay {
		t.Errorf("mean delay %v vs static %v", res.Delay.Mean(), p.MeanDelay)
	}
	if res.Delivered != p.Delivered {
		t.Errorf("delivered %d vs static %d", res.Delivered, p.Delivered)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := scenario.Config{
		Algorithm: "sprinklers", Traffic: "uniform", Scenario: "flashcrowd",
		N: 8, Load: 0.8, Slots: 3000, Windows: 6, Seed: 5,
	}
	a, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs between identical runs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}

// TestParallelDeterminismFlashcrowd: a flash-crowd replay with sharded
// slot execution must reproduce the sequential replay exactly — every
// window point and every aggregate — including on the adaptive switch,
// whose resize machinery runs inside the parallel slot protocol. This is
// the scenario-level leg of the engine's trace-identity guarantee, and the
// race detector's view of the worker handoffs (CI runs it under -race).
func TestParallelDeterminismFlashcrowd(t *testing.T) {
	for _, aopts := range []map[string]any{nil, {"adaptive": true}} {
		cfg := scenario.Config{
			Algorithm: "sprinklers", AlgOptions: aopts,
			Traffic: "uniform", Scenario: "flashcrowd",
			N: 16, Load: 0.8, Slots: 6000, Windows: 6, Seed: 9,
		}
		seq, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Parallelism = 4
		par, err := scenario.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par.Offered != seq.Offered || par.Delivered != seq.Delivered {
			t.Fatalf("aopts %v: parallel offered/delivered %d/%d, sequential %d/%d",
				aopts, par.Offered, par.Delivered, seq.Offered, seq.Delivered)
		}
		if par.Delay.Mean() != seq.Delay.Mean() || par.Delay.Max() != seq.Delay.Max() {
			t.Fatalf("aopts %v: parallel delay (mean %v, max %d) differs from sequential (mean %v, max %d)",
				aopts, par.Delay.Mean(), par.Delay.Max(), seq.Delay.Mean(), seq.Delay.Max())
		}
		for i := range seq.Windows {
			if par.Windows[i] != seq.Windows[i] {
				t.Fatalf("aopts %v: window %d differs: parallel %+v vs sequential %+v",
					aopts, i, par.Windows[i], seq.Windows[i])
			}
		}
	}
}

// TestFlashcrowdStaysAdmissible: every matrix a flash crowd emits must keep
// all row and column sums at or below 1, or the crowd window would be
// unconditionally unstable instead of a tracking problem.
func TestFlashcrowdStaysAdmissible(t *testing.T) {
	for _, load := range []float64{0.5, 0.9} {
		uniform := make([][]float64, 16)
		for i := range uniform {
			uniform[i] = make([]float64, 16)
			for j := range uniform[i] {
				uniform[i][j] = load / 16
			}
		}
		events, err := registry.BuildScenario("flashcrowd", registry.ScenarioConfig{
			N: 16, Load: load, Base: uniform, Warmup: 1000, Slots: 10000,
			Rand: rand.New(rand.NewSource(2)),
		}, map[string]any{"surge": 1.0, "inputs": 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if e.Rates == nil {
				continue
			}
			for i, row := range e.Rates {
				var rs float64
				for _, r := range row {
					rs += r
				}
				if rs > 1+1e-9 {
					t.Fatalf("load %v: row %d sum %v oversubscribed", load, i, rs)
				}
			}
			for j := range e.Rates {
				var cs float64
				for i := range e.Rates {
					cs += e.Rates[i][j]
				}
				if cs > 1+1e-9 {
					t.Fatalf("load %v: column %d sum %v oversubscribed", load, j, cs)
				}
			}
		}
	}
}

// TestLinkfailThinsArrivals: with half the ingress links hard-failed, the
// outage windows must see substantially fewer offered packets, and the
// post-recovery windows must climb back.
func TestLinkfailThinsArrivals(t *testing.T) {
	res, err := scenario.Run(scenario.Config{
		Algorithm: "load-balanced", Traffic: "uniform", Scenario: "linkfail",
		ScenarioOptions: map[string]any{"at": 0.3, "duration": 0.3, "links": 4},
		N:               8, Load: 0.8, Slots: 10000, Windows: 10, Seed: 7,
	})
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
	r := scenario.AnalyzeRecovery(mk(10, 11, 50, 30, 14, 12))
	if r.Baseline != 10 || r.Peak != 50 || r.PeakWindow != 2 {
		t.Fatalf("baseline/peak wrong: %+v", r)
	}
	if !r.Disturbed || !r.Recovered || r.RecoveredWindow != 4 {
		t.Fatalf("recovery wrong: %+v", r)
	}
	r = scenario.AnalyzeRecovery(mk(10, 11, 50, 40, 35, 30))
	if !r.Disturbed || r.Recovered {
		t.Fatalf("series never settles but Recovered: %+v", r)
	}
	// A series that never leaves the baseline band is not "recovered at
	// its peak" — it was never disturbed at all. (A flatter, later peak
	// must not read as a slower recovery than a tall early one.)
	r = scenario.AnalyzeRecovery(mk(10, 11, 12, 14, 11))
	if r.Disturbed || r.Recovered {
		t.Fatalf("undisturbed series misreported: %+v", r)
	}
	if r.Peak != 14 || r.PeakWindow != 3 {
		t.Fatalf("undisturbed peak wrong: %+v", r)
	}
	r = scenario.AnalyzeRecovery(nil)
	if r.Disturbed || r.Recovered || r.Peak != 0 {
		t.Fatalf("empty series: %+v", r)
	}
}

func TestRunRejections(t *testing.T) {
	base := scenario.Config{
		Algorithm: "sprinklers", Traffic: "uniform",
		N: 8, Load: 0.5, Slots: 1000, Windows: 4, Seed: 1,
	}
	cases := []func(*scenario.Config){
		func(c *scenario.Config) { c.Algorithm = "nope" },
		func(c *scenario.Config) { c.Traffic = "nope" },
		func(c *scenario.Config) { c.Scenario = "nope" },
		func(c *scenario.Config) { c.Windows = 2000 },
		func(c *scenario.Config) { c.N = 1 },
		func(c *scenario.Config) { c.Slots = 0 },
		func(c *scenario.Config) {
			c.Scenario = "flashcrowd"
			c.ScenarioOptions = map[string]any{"surge": 2.0}
		},
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := scenario.Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestRunCanceled: a replay whose context is done returns the context's
// error and no partial Result, so callers need only the usual cancellation
// check (experiment.IsCancellation).
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := scenario.Run(scenario.Config{
		Algorithm: "sprinklers", Traffic: "uniform", Scenario: "flashcrowd",
		N: 8, Load: 0.5, Slots: 1000, Windows: 4, Seed: 1, Context: ctx,
	})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled replay returned (%v, %v), want (nil, context.Canceled)", res, err)
	}
}

// TestScenarioEventsWithinHorizon pins that every builtin places events on
// the absolute clock inside [0, warmup+slots) for a variety of horizons.
func TestScenarioEventsWithinHorizon(t *testing.T) {
	for _, sc := range registry.Scenarios() {
		for _, horizon := range []sim.Slot{100, 1000, 65536} {
			base := make([][]float64, 4)
			for i := range base {
				base[i] = []float64{0.1, 0.1, 0.1, 0.1}
			}
			events, err := registry.BuildScenario(sc.Name, registry.ScenarioConfig{
				N: 4, Load: 0.4, Base: base,
				Warmup: horizon / 5, Slots: horizon,
				Rand: rand.New(rand.NewSource(1)),
			}, nil)
			if err != nil {
				t.Fatalf("%s at horizon %d: %v", sc.Name, horizon, err)
			}
			if len(events) == 0 {
				t.Fatalf("%s at horizon %d: no events", sc.Name, horizon)
			}
		}
	}
}
