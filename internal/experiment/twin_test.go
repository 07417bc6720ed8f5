package experiment

import (
	"math"
	"testing"

	"sprinklers/internal/markov"
	"sprinklers/internal/registry"
)

func TestTwinModelSelection(t *testing.T) {
	model, maxStable := twinModel("sprinklers")
	if model != twinMarkov || maxStable != 0 {
		t.Errorf("sprinklers twin = (%q, %v), want (markov, 0)", model, maxStable)
	}
	model, maxStable = twinModel("tcp-hashing")
	if model != twinQueue {
		t.Errorf("tcp-hashing twin model = %q, want the queue fallback", model)
	}
	if maxStable != 0.3 {
		t.Errorf("tcp-hashing stability cap = %v, want the registered 0.3", maxStable)
	}
	if model, _ := twinModel("no-such-arch"); model != twinQueue {
		t.Errorf("unknown arch twin model = %q, want the queue fallback", model)
	}
}

func TestEveryRegisteredTwinIsKnown(t *testing.T) {
	for _, a := range registry.Architectures.All() {
		if a.Twin != "" && a.Twin != twinMarkov && a.Twin != twinQueue {
			t.Errorf("architecture %q registers unknown twin model %q", a.Name, a.Twin)
		}
	}
}

func TestTwinDelayMatchesClosedForms(t *testing.T) {
	if got, want := twinDelay(twinMarkov, 0, 32, 0.9), markov.MeanQueueClosedForm(32, 0.9); got != want {
		t.Errorf("markov twin at N=32 load 0.9 = %v, want %v", got, want)
	}
	if got, want := twinDelay(twinQueue, 0, 32, 0.5), 1.0; got != want {
		t.Errorf("queue twin at load 0.5 = %v, want %v", got, want)
	}
}

func TestTwinDelayMonotoneAndFiniteNearTheCliff(t *testing.T) {
	prev := 0.0
	for _, load := range []float64{0.1, 0.5, 0.9, 0.98, 0.999} {
		d := twinDelay(twinMarkov, 0, 8, load)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			t.Fatalf("twin delay at load %v is not finite: %v", load, d)
		}
		if d < prev {
			t.Fatalf("twin delay decreased from %v to %v at load %v", prev, d, load)
		}
		prev = d
	}
}

func TestTwinStabilityCapRescalesLoad(t *testing.T) {
	// With a 0.3 stability cap, load 0.29 is near the cliff: the capped
	// model must dwarf the uncapped one at the same load.
	capped := twinDelay(twinQueue, 0.3, 8, 0.29)
	uncapped := twinDelay(twinQueue, 0, 8, 0.29)
	if capped < 10*uncapped {
		t.Errorf("capped twin %v should dwarf uncapped %v near the registered cliff", capped, uncapped)
	}
}

func TestCalibrateTwin(t *testing.T) {
	raw := []float64{1, 2, 4}
	sim := []float64{3, 6, 12}
	if got := calibrateTwin(raw, sim); math.Abs(got-3) > 1e-12 {
		t.Errorf("calibrateTwin = %v, want 3", got)
	}
	if got := calibrateTwin([]float64{0, 0}, []float64{5, 5}); got != 1 {
		t.Errorf("calibrateTwin with no usable points = %v, want the identity scale 1", got)
	}
}

func TestTwinDivergence(t *testing.T) {
	if got := twinDivergence(12, 10); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("twinDivergence(12, 10) = %v, want 0.2", got)
	}
	// Sub-slot delays floor the denominator at 1.
	if got := twinDivergence(0.4, 0.1); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("twinDivergence(0.4, 0.1) = %v, want 0.3", got)
	}
}
