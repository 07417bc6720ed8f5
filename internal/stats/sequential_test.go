package stats

import (
	"math"
	"testing"
)

func TestRelHalfWidthNeedsTwoSamples(t *testing.T) {
	if !math.IsInf(relHalfWidth(nil), 1) {
		t.Error("no samples should report +Inf relative half-width")
	}
	if !math.IsInf(relHalfWidth([]float64{5}), 1) {
		t.Error("one sample should report +Inf relative half-width")
	}
}

func TestRelHalfWidthMatchesMeanCI95(t *testing.T) {
	xs := []float64{10, 11, 9, 10.5}
	mean, half := MeanCI95(xs)
	got := relHalfWidth(xs)
	want := half / mean
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("relHalfWidth = %v, want %v", got, want)
	}
}

func TestRelHalfWidthFloorsTinyMeans(t *testing.T) {
	// Near-zero means must not blow the ratio up: the denominator floors
	// at 1 so sub-slot delays can still satisfy a relative tolerance.
	xs := []float64{0.01, 0.02, 0.015}
	_, half := MeanCI95(xs)
	if got := relHalfWidth(xs); got != half {
		t.Errorf("relHalfWidth = %v, want the raw half-width %v for a sub-1 mean", got, half)
	}
}

func TestSequentialStop(t *testing.T) {
	tight := []float64{100, 100.1, 99.9, 100}
	loose := []float64{100, 180, 40, 120}
	cases := []struct {
		name   string
		xs     []float64
		minN   int
		relTol float64
		want   bool
	}{
		{"tight samples stop", tight, 2, 0.1, true},
		{"loose samples keep going", loose, 2, 0.1, false},
		{"below minimum never stops", tight[:2], 3, 0.5, false},
		{"disabled tolerance never stops", tight, 2, 0, false},
		{"single sample never stops even with minN 1", []float64{7}, 1, 0.9, false},
	}
	for _, c := range cases {
		if got := SequentialStop(c.xs, c.minN, c.relTol); got != c.want {
			t.Errorf("%s: SequentialStop(%v, %d, %v) = %v, want %v",
				c.name, c.xs, c.minN, c.relTol, got, c.want)
		}
	}
}

// TestSequentialStopMonotoneInTolerance: a looser tolerance can only stop
// earlier, never later — the property the adaptive runner's determinism
// argument leans on.
func TestSequentialStopMonotoneInTolerance(t *testing.T) {
	xs := []float64{50, 52, 51, 49.5, 50.5}
	for n := 2; n <= len(xs); n++ {
		if SequentialStop(xs[:n], 2, 0.05) && !SequentialStop(xs[:n], 2, 0.10) {
			t.Fatalf("n=%d: stopping at 5%% but not at 10%% violates monotonicity", n)
		}
	}
}
