package core

import (
	"math/rand"
	"testing"

	"sprinklers/internal/registry"
	"sprinklers/internal/sim"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

// Shorthands shared by the test files in this package.
type (
	delivery = sim.Delivery
	packet   = sim.Packet
)

func int64ToSlot(v int) sim.Slot { return sim.Slot(v) }

func rowsOf(m *traffic.Matrix) [][]float64 {
	rates := make([][]float64, m.N())
	for i := range rates {
		rates[i] = m.Row(i)
	}
	return rates
}

// shiftingSource draws Bernoulli arrivals from ms[0] and switches to ms[k]
// at slot k*phase, numbering every flow on across the switches.
func shiftingSource(phase sim.Slot, rng *rand.Rand, ms ...*traffic.Matrix) *traffic.Dynamic {
	var shifts []registry.Event
	for k, m := range ms[1:] {
		shifts = append(shifts, registry.Event{At: sim.Slot(k+1) * phase, Rates: rowsOf(m)})
	}
	return traffic.NewDynamic(ms[0], shifts, 0, rng)
}

func newSwitch(t *testing.T, n int, m *traffic.Matrix, sched Scheduler, seed int64) *Switch {
	t.Helper()
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = m.Row(i)
	}
	sw, err := New(Config{
		N:         n,
		Rates:     rates,
		Scheduler: sched,
		Rand:      rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sw
}

func TestGatedUniformNoReordering(t *testing.T) {
	for _, load := range []float64{0.1, 0.5, 0.9} {
		m := traffic.Uniform(16, load)
		sw := newSwitch(t, 16, m, GatedLSF, 7)
		r := switchtest.Run(sw, m, 50000, 42)
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
		switchtest.CheckThroughput(t, r, 0.9)
	}
}

func TestGatedDiagonalNoReordering(t *testing.T) {
	m := traffic.Diagonal(16, 0.8)
	sw := newSwitch(t, 16, m, GatedLSF, 11)
	r := switchtest.Run(sw, m, 50000, 13)
	switchtest.CheckConservation(t, sw, r)
	switchtest.CheckOrdered(t, r)
	switchtest.CheckThroughput(t, r, 0.9)
}

func TestGatedRandomAdmissibleNoReordering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		m := switchtest.RandomAdmissible(16, 0.85, rng)
		sw := newSwitch(t, 16, m, GatedLSF, rng.Int63())
		r := switchtest.Run(sw, m, 40000, rng.Int63())
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
	}
}

func TestGreedyRunsAndConserves(t *testing.T) {
	m := traffic.Uniform(16, 0.7)
	sw := newSwitch(t, 16, m, GreedyLSF, 3)
	r := switchtest.Run(sw, m, 50000, 5)
	switchtest.CheckConservation(t, sw, r)
	switchtest.CheckThroughput(t, r, 0.9)
	t.Logf("greedy reordering fraction: %.6f", r.Reorder.Fraction())
}
