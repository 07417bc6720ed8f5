package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
)

// Golden-file coverage for every renderer: the fixtures are hand-built (no
// simulation), so the files pin the exact formatting — column widths,
// padding, float precision, CSV headers. A formatting change shows up as a
// readable diff instead of an invisible drift; refresh the files with
//
//	go test ./internal/experiment -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenStudy is a deterministic two-group study result: one plain group
// and one bursty scenario group with windowed trajectories, exercising CI
// cells, missing-point dashes, scenario labels and window rows at once.
func goldenStudy() []PointResult {
	win := func(w int, start, end sim.Slot, mean, p99 float64, off, del int64, tp, backlog float64, reord int64) stats.WindowPoint {
		return stats.WindowPoint{Window: w, Start: start, End: end,
			MeanDelay: mean, P99Delay: p99, Offered: off, Delivered: del, Throughput: tp, Backlog: backlog, Reordered: reord}
	}
	return []PointResult{
		{PointKey: PointKey{Algorithm: Sprinklers, Traffic: UniformTraffic, N: 32, Load: 0.5},
			Replicas: 3, MeanDelay: 41.25, DelayCI95: 2.5, P99Delay: 96, MaxDelay: 210,
			Throughput: 0.9981, ThroughputCI95: 0.0012, Delivered: 48000},
		{PointKey: PointKey{Algorithm: Sprinklers, Traffic: UniformTraffic, N: 32, Load: 0.9},
			Replicas: 3, MeanDelay: 129.6, DelayCI95: 11.75, P99Delay: 402, MaxDelay: 1207,
			Throughput: 0.9875, ThroughputCI95: 0.004, Delivered: 86000},
		{PointKey: PointKey{Algorithm: LoadBalanced, Traffic: UniformTraffic, N: 32, Load: 0.5},
			Replicas: 3, MeanDelay: 17.5, DelayCI95: 0.5, P99Delay: 40, MaxDelay: 88,
			Throughput: 0.9998, ThroughputCI95: 0.0001, Reordered: 1234, Delivered: 48000},
		{PointKey: PointKey{Algorithm: Sprinklers, Traffic: DiagonalTraffic, Scenario: FlashCrowd, N: 8, Load: 0.8, Burst: 16},
			Replicas: 2, MeanDelay: 75.5, DelayCI95: 6.25, P99Delay: 300, MaxDelay: 950,
			Throughput: 0.95, ThroughputCI95: 0.01, Delivered: 9000,
			Windows: []stats.WindowPoint{
				win(0, 1000, 1500, 60.5, 180, 3200, 3150, 0.984375, 210.5, 0),
				win(1, 1500, 2000, 142.25, 610, 3150, 2900, 0.920635, 455, 2),
				win(2, 2000, 2500, 66.125, 200, 3100, 3350, 1.080645, 201, 0),
			}},
		{PointKey: PointKey{Algorithm: LoadBalanced, Traffic: DiagonalTraffic, Scenario: FlashCrowd, N: 8, Load: 0.8, Burst: 16},
			Replicas: 2, MeanDelay: 30.25, DelayCI95: 1.5, P99Delay: 88, MaxDelay: 240,
			Throughput: 0.99, ThroughputCI95: 0.002, Reordered: 812, Delivered: 9100,
			Windows: []stats.WindowPoint{
				win(0, 1000, 1500, 28, 80, 3200, 3190, 0.996875, 55, 240),
				win(1, 1500, 2000, 39.5, 130, 3150, 3080, 0.977778, 120.5, 310),
				win(2, 2000, 2500, 29.75, 85, 3100, 3165, 1.020968, 58, 262),
			}},
	}
}

func TestGoldenStudyCurves(t *testing.T) {
	var b bytes.Buffer
	RenderStudyCurves(&b, goldenStudy())
	checkGolden(t, "curves", b.Bytes())
}

func TestGoldenStudyCSV(t *testing.T) {
	var b bytes.Buffer
	if err := RenderStudyCSV(&b, goldenStudy()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "csv", b.Bytes())
}

func TestGoldenStudyDetail(t *testing.T) {
	var b bytes.Buffer
	RenderStudyDetail(&b, goldenStudy())
	checkGolden(t, "detail", b.Bytes())
}

// goldenAdaptive is a hand-built adaptive study result: two seed points and
// a refined midpoint carrying the twin columns.
func goldenAdaptive() []PointResult {
	return []PointResult{
		{PointKey: PointKey{Algorithm: Sprinklers, Traffic: UniformTraffic, N: 8, Load: 0.5},
			Replicas: 2, MeanDelay: 37.2, DelayCI95: 3.4, P99Delay: 90, MaxDelay: 201,
			Throughput: 0.997, ThroughputCI95: 0.002, Delivered: 8000},
		{PointKey: PointKey{Algorithm: Sprinklers, Traffic: UniformTraffic, N: 8, Load: 0.8},
			Replicas: 3, MeanDelay: 57.7, DelayCI95: 3.2, P99Delay: 160, MaxDelay: 420,
			Throughput: 0.991, ThroughputCI95: 0.003, Delivered: 12700},
		{PointKey: PointKey{Algorithm: Sprinklers, Traffic: UniformTraffic, N: 8, Load: 0.65},
			Replicas: 2, MeanDelay: 48.9, DelayCI95: 4.1, P99Delay: 120, MaxDelay: 300,
			Throughput: 0.995, ThroughputCI95: 0.002, Delivered: 10300,
			TwinDelay: 52.3, TwinDivergence: 0.0695, RefineRound: 1},
	}
}

func TestGoldenAdaptiveDetail(t *testing.T) {
	var b bytes.Buffer
	RenderStudyDetail(&b, goldenAdaptive())
	checkGolden(t, "adaptive_detail", b.Bytes())
}

func TestGoldenAdaptiveCSV(t *testing.T) {
	var b bytes.Buffer
	if err := RenderStudyCSV(&b, goldenAdaptive()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "adaptive_csv", b.Bytes())
}

func TestGoldenTrajectory(t *testing.T) {
	var b bytes.Buffer
	RenderTrajectory(&b, goldenStudy())
	checkGolden(t, "trajectory", b.Bytes())
}

func TestGoldenTrajectoryCSV(t *testing.T) {
	var b bytes.Buffer
	if err := RenderTrajectoryCSV(&b, goldenStudy()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trajcsv", b.Bytes())
}

func TestGoldenMarkovTable(t *testing.T) {
	rs := []PointResult{
		{PointKey: PointKey{N: 8, Load: 0.9}, Replicas: 1, MeanDelay: 21.4},
		{PointKey: PointKey{N: 64, Load: 0.9}, Replicas: 1, MeanDelay: 170.9},
		{PointKey: PointKey{N: 1024, Load: 0.9}, Replicas: 1, MeanDelay: 2730.2},
		{PointKey: PointKey{N: 8, Load: 0.95}, Replicas: 1, MeanDelay: 43.1},
		{PointKey: PointKey{N: 64, Load: 0.95}, Replicas: 1, MeanDelay: 342.7},
		{PointKey: PointKey{N: 1024, Load: 0.95}, Replicas: 1, MeanDelay: 5466.8},
	}
	var b bytes.Buffer
	RenderMarkovTable(&b, rs)
	checkGolden(t, "markov", b.Bytes())
}

func TestGoldenBoundTable(t *testing.T) {
	rs := []PointResult{
		{PointKey: PointKey{N: 1024, Load: 0.9}, Replicas: 1,
			QueueOverload: "3.10e-031", SwitchOverload: "6.51e-025"},
		{PointKey: PointKey{N: 4096, Load: 0.9}, Replicas: 1,
			QueueOverload: "1.77e-029", SwitchOverload: "5.93e-022"},
		{PointKey: PointKey{N: 1024, Load: 0.95}, Replicas: 1,
			QueueOverload: "8.21e-016", SwitchOverload: "1.72e-009"},
		{PointKey: PointKey{N: 4096, Load: 0.95}, Replicas: 1,
			QueueOverload: "4.43e-015", SwitchOverload: "1.49e-007"},
	}
	var b bytes.Buffer
	RenderBoundTable(&b, rs, true)
	checkGolden(t, "bound", b.Bytes())
}
