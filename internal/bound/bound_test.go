package bound

import (
	"math"
	"testing"
)

func TestHBasics(t *testing.T) {
	// h(p, 0) = 1 for any p; h(0, a) = 1; h(1, a) = 1.
	for _, p := range []float64{0, 0.3, 0.5, 1} {
		if math.Abs(h(p, 0)-1) > 1e-12 {
			t.Errorf("h(%v, 0) = %v", p, h(p, 0))
		}
	}
	for _, a := range []float64{0.5, 2, 10} {
		if math.Abs(h(0, a)-1) > 1e-12 || math.Abs(h(1, a)-1) > 1e-12 {
			t.Errorf("H at p in {0,1} should be 1 for a=%v", a)
		}
	}
}

// TestPStarMaximizesH: p*(a) must beat a grid of other p values.
func TestPStarMaximizesH(t *testing.T) {
	for _, a := range []float64{0.01, 0.1, 1, 3, 10} {
		ps := pStar(a)
		if ps <= 0 || ps >= 1 {
			t.Fatalf("pStar(%v) = %v out of (0,1)", a, ps)
		}
		best := h(ps, a)
		for p := 0.01; p < 1; p += 0.01 {
			if h(p, a) > best+1e-9 {
				t.Fatalf("h(%v, %v) = %v exceeds h(p*, a) = %v", p, a, h(p, a), best)
			}
		}
	}
}

func TestPStarSmallALimit(t *testing.T) {
	if math.Abs(pStar(1e-12)-0.5) > 1e-6 {
		t.Fatalf("PStar small-a limit = %v, want 0.5", pStar(1e-12))
	}
}

func TestFeasibilityThreshold(t *testing.T) {
	got := FeasibilityThreshold(1024)
	want := 2.0/3.0 + 1.0/(3.0*1024*1024)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("threshold = %v, want %v", got, want)
	}
}

func TestBelowThresholdIsZero(t *testing.T) {
	if !math.IsInf(LogQueueOverload(1024, 0.6), -1) {
		t.Fatal("bound below the Theorem 1 threshold must be zero")
	}
	if QueueOverload(1024, 0.5) != 0 {
		t.Fatal("probability should be exactly 0")
	}
	if !math.IsInf(LogSwitchOverload(1024, 0.5), -1) {
		t.Fatal("switch-wide bound should also be zero")
	}
}

// TestMatchesPaperTable1 pins the reproduction against the printed values.
// Only entries where the paper's own computation did not underflow are
// compared (the top-left of its N=2048/4096 columns plateaus around 1e-29
// to 1e-30, a float64 underflow artifact our log-domain evaluation avoids).
func TestMatchesPaperTable1(t *testing.T) {
	cases := []struct {
		n    int
		rho  float64
		want float64
	}{
		{1024, 0.91, 3.06e-15},
		{1024, 0.92, 3.54e-12},
		{1024, 0.93, 1.76e-9},
		{1024, 0.94, 3.76e-7},
		{1024, 0.95, 3.50e-5},
		{1024, 0.96, 1.41e-3},
		{1024, 0.97, 2.50e-2},
		{2048, 0.92, 1.26e-23},
		{2048, 0.93, 3.09e-18},
		{2048, 0.94, 1.42e-13},
		{2048, 0.95, 1.22e-9},
		{2048, 0.96, 1.99e-6},
		{2048, 0.97, 6.24e-4},
		{4096, 0.95, 1.48e-18},
		{4096, 0.96, 3.97e-12},
		{4096, 0.97, 3.90e-7},
	}
	for _, c := range cases {
		got := QueueOverload(c.n, c.rho)
		if rel := math.Abs(got-c.want) / c.want; rel > 0.05 {
			t.Errorf("N=%d rho=%.2f: bound %.3e, paper %.3e (rel err %.3f)",
				c.n, c.rho, got, c.want, rel)
		}
	}
}

// TestMonotonicity: the bound grows with load and shrinks with switch size.
func TestMonotonicity(t *testing.T) {
	for _, n := range []int{512, 1024, 4096} {
		prev := math.Inf(-1)
		for rho := 0.70; rho < 0.99; rho += 0.01 {
			lp := LogQueueOverload(n, rho)
			if lp < prev {
				t.Fatalf("bound not monotone in rho at N=%d rho=%.2f", n, rho)
			}
			prev = lp
		}
	}
	for _, rho := range []float64{0.9, 0.95} {
		if LogQueueOverload(2048, rho) >= LogQueueOverload(1024, rho) {
			t.Fatalf("bound should shrink with N at rho=%v", rho)
		}
	}
}

func TestBoundNeverExceedsOne(t *testing.T) {
	for _, rho := range []float64{0.99, 0.999} {
		for _, n := range []int{2, 8, 1024} {
			if lp := LogQueueOverload(n, rho); lp > 0 {
				t.Fatalf("bound above 1 at N=%d rho=%v", n, rho)
			}
		}
	}
}

func TestSwitchwideUnionBound(t *testing.T) {
	n, rho := 2048, 0.93
	lq := LogQueueOverload(n, rho)
	ls := LogSwitchOverload(n, rho)
	want := lq + math.Log(2*float64(n)*float64(n))
	if math.Abs(ls-want) > 1e-9 {
		t.Fatalf("union bound off: %v vs %v", ls, want)
	}
	// The paper's worked example says "2N^2 times" the per-queue bound
	// but prints 1.30e-11, which is N^2 x 3.09e-18; the text's stated
	// formula gives 2.59e-11. We follow the stated formula, so our value
	// must be exactly twice the printed one.
	if got := SwitchOverload(n, rho); math.Abs(got-2*1.298e-11)/2.6e-11 > 0.05 {
		t.Fatalf("switch-wide bound %.3e, want 2 x paper's printed 1.30e-11", got)
	}
}
