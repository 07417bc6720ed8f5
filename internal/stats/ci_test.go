package stats

import (
	"math"
	"testing"
)

func TestTCrit95KnownValues(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {9, 2.262}, {30, 2.042},
		{40, 2.021}, {60, 2.000}, {120, 1.980}, {1000, 1.9624},
	}
	for _, c := range cases {
		if got := tCrit95(c.df); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tCrit95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsInf(tCrit95(0), 1) {
		t.Error("tCrit95(0) should be +Inf: no interval from one sample")
	}
}

func TestTCrit95Monotone(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := tCrit95(df)
		if v > prev {
			t.Fatalf("TCrit95 not non-increasing at df=%d: %v > %v", df, v, prev)
		}
		if v < 1.959 {
			t.Fatalf("tCrit95(%d) = %v below the normal limit", df, v)
		}
		prev = v
	}
}

func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{1, 2, 3, 4, 5})
	if mean != 3 {
		t.Errorf("mean = %v", mean)
	}
	// s^2 = 2.5, half = t_{0.975,4} * sqrt(2.5/5) = 2.776 * 0.70710678...
	want := 2.776 * math.Sqrt(0.5)
	if math.Abs(half-want) > 1e-9 {
		t.Errorf("half = %v, want %v", half, want)
	}

	if m, h := MeanCI95([]float64{7}); m != 7 || h != 0 {
		t.Errorf("single sample: mean %v half %v, want 7, 0", m, h)
	}
	if m, h := MeanCI95(nil); m != 0 || h != 0 {
		t.Errorf("empty: mean %v half %v", m, h)
	}
	// Identical samples: zero-width interval.
	if _, h := MeanCI95([]float64{4, 4, 4, 4}); h != 0 {
		t.Errorf("constant samples: half = %v, want 0", h)
	}
}
