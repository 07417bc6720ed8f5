package markov

import (
	"math"
	"math/rand"
	"testing"
)

func TestClosedFormValues(t *testing.T) {
	// rho (N-1) / (2 (1-rho)); at rho=0.9, N=1000: 0.9*999/0.2 = 4495.5 —
	// the right edge of the paper's Figure 5.
	if got := MeanQueueClosedForm(1000, 0.9); math.Abs(got-4495.5) > 1e-9 {
		t.Fatalf("closed form = %v, want 4495.5", got)
	}
	if got := MeanQueueClosedForm(1, 0.9); got != 0 {
		t.Fatalf("N=1 should give zero queue, got %v", got)
	}
}

func TestClosedFormMatchesStationarySolve(t *testing.T) {
	for _, c := range []struct {
		n   int
		rho float64
	}{
		{4, 0.3}, {8, 0.5}, {16, 0.9}, {64, 0.8}, {256, 0.95},
	} {
		cf := MeanQueueClosedForm(c.n, c.rho)
		num := MeanQueueNumeric(c.n, c.rho)
		if rel := math.Abs(cf-num) / math.Max(cf, 1); rel > 0.01 {
			t.Errorf("N=%d rho=%v: closed form %v vs stationary %v", c.n, c.rho, cf, num)
		}
	}
}

func TestClosedFormMatchesSimulation(t *testing.T) {
	for _, c := range []struct {
		n   int
		rho float64
	}{
		{8, 0.5}, {32, 0.9},
	} {
		cf := MeanQueueClosedForm(c.n, c.rho)
		mc := SimulateMeanQueue(c.n, c.rho, 4_000_000, rand.New(rand.NewSource(int64(c.n))))
		if rel := math.Abs(cf-mc) / math.Max(cf, 1); rel > 0.1 {
			t.Errorf("N=%d rho=%v: closed form %v vs simulation %v", c.n, c.rho, cf, mc)
		}
	}
}

func TestStationaryIsDistribution(t *testing.T) {
	pi := Stationary(16, 0.8, 1e-13)
	var sum float64
	for _, v := range pi {
		if v < 0 {
			t.Fatal("negative stationary probability")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary sums to %v", sum)
	}
	// P(empty) relates to the drift: service is used a fraction rho of
	// cycles, and the chain idles (stays at 0) only from state 0 with no
	// arrival: pi_0 * (1 - rho/N) = 1 - rho.
	want := (1 - 0.8) / (1 - 0.8/16)
	if math.Abs(pi[0]-want) > 1e-6 {
		t.Fatalf("pi_0 = %v, want %v", pi[0], want)
	}
}

// TestLinearInN: Figure 5's visual claim — delay grows linearly in N at
// fixed load.
func TestLinearInN(t *testing.T) {
	d256 := MeanQueueClosedForm(256, 0.9)
	d512 := MeanQueueClosedForm(512, 0.9)
	ratio := d512 / d256
	if math.Abs(ratio-511.0/255.0) > 1e-9 {
		t.Fatalf("delay ratio %v, want (N-1) scaling", ratio)
	}
}

// TestFig5Series: on the grid `sweep -builtin fig5` plots, the delay grows
// with N.
func TestFig5Series(t *testing.T) {
	ns := []int{8, 16, 32, 64, 128, 256, 512, 768, 1024}
	for i := 1; i < len(ns); i++ {
		if MeanQueueClosedForm(ns[i], 0.9) <= MeanQueueClosedForm(ns[i-1], 0.9) {
			t.Fatal("Figure 5 series must be increasing in N")
		}
	}
}

func TestValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"closed form rho=1":  func() { MeanQueueClosedForm(8, 1) },
		"closed form rho<0":  func() { MeanQueueClosedForm(8, -0.1) },
		"stationary rho=0":   func() { Stationary(8, 0, 1e-12) },
		"stationary rho=1.5": func() { Stationary(8, 1.5, 1e-12) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
