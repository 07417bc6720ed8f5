package baseline

import (
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

func TestThroughputAndConservation(t *testing.T) {
	for _, load := range []float64{0.3, 0.7, 0.95} {
		m := traffic.Uniform(16, load)
		sw := New(16)
		r := switchtest.Run(sw, m, 60000, 5)
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckThroughput(t, r, 0.95)
	}
}

// TestReordersUnderLoad documents the defect that motivates the paper: the
// baseline delivers a significant fraction of packets out of order.
func TestReordersUnderLoad(t *testing.T) {
	m := traffic.Uniform(16, 0.8)
	sw := New(16)
	r := switchtest.Run(sw, m, 60000, 6)
	if r.Reorder.Reordered() == 0 {
		t.Fatal("baseline unexpectedly preserved order; the simulation is too gentle or broken")
	}
	if r.Reorder.Fraction() < 0.01 {
		t.Fatalf("reordering fraction %v suspiciously low at load 0.8", r.Reorder.Fraction())
	}
}

// TestDelayLowerBound: among all architectures, the baseline's delay should
// be close to the bare fabric latency at light load (a few slots to wait
// for the right output connection).
func TestDelayLowerBound(t *testing.T) {
	m := traffic.Uniform(32, 0.1)
	sw := New(32)
	r := switchtest.Run(sw, m, 60000, 7)
	if mean := r.Delay.Mean(); mean > 3*32 {
		t.Fatalf("baseline light-load delay %v should be within a few fabric rounds", mean)
	}
}

// TestSingleFlowFIFO: with only one flow there is a single path ordering
// hazard; packets still traverse different intermediate ports, so this
// checks the detector wiring end to end on a deterministic trace.
func TestSingleFlowTrace(t *testing.T) {
	sw := New(4)
	tr := switchtest.NewTrace(4)
	for k := 0; k < 40; k++ {
		tr.Add(sim.Slot(k), 0, 2)
	}
	var delivered int
	for tt := sim.Slot(0); tt < 200; tt++ {
		tr.Next(tt, sw.Arrive)
		sw.Step(func(d sim.Delivery) { delivered++ })
	}
	if delivered != 40 {
		t.Fatalf("delivered %d of 40", delivered)
	}
	if sw.Backlog() != 0 {
		t.Fatalf("backlog %d after drain", sw.Backlog())
	}
}

// TestRandomAdmissibleStable: the baseline achieves full throughput for any
// admissible pattern.
func TestRandomAdmissibleStable(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 3; trial++ {
		m := switchtest.RandomAdmissible(16, 0.9, rng)
		sw := New(16)
		r := switchtest.Run(sw, m, 50000, rng.Int63())
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckThroughput(t, r, 0.95)
	}
}
