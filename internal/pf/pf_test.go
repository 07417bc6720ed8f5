package pf

import (
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

func TestOrderingFixedThreshold(t *testing.T) {
	for _, threshold := range []int{1, 8, 16} {
		for _, load := range []float64{0.2, 0.8} {
			m := traffic.Uniform(16, load)
			sw := New(16, threshold)
			r := switchtest.Run(sw, m, 50000, 41)
			switchtest.CheckConservation(t, sw, r)
			switchtest.CheckOrdered(t, r)
		}
	}
}

func TestOrderingAdaptiveThreshold(t *testing.T) {
	for _, load := range []float64{0.1, 0.5, 0.9} {
		m := traffic.Diagonal(16, load)
		sw := New(16, AdaptiveThreshold)
		r := switchtest.Run(sw, m, 60000, 43)
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
		switchtest.CheckThroughput(t, r, 0.9)
	}
}

func TestOrderingRandomAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 3; trial++ {
		m := switchtest.RandomAdmissible(8, 0.8, rng)
		sw := New(8, AdaptiveThreshold)
		r := switchtest.Run(sw, m, 40000, rng.Int63())
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
	}
}

// TestPaddingHappensBelowFullFrames: at light load full frames essentially
// never form, so deliveries can only happen through padding.
func TestPaddingHappensBelowFullFrames(t *testing.T) {
	const n = 16
	m := traffic.Uniform(n, 0.1)
	sw := New(n, 2)
	r := switchtest.Run(sw, m, 60000, 47)
	if r.Delivered == 0 {
		t.Fatal("nothing delivered at light load; padding is not working")
	}
	if sw.PaddingInjected() == 0 {
		t.Fatal("no padding injected at light load")
	}
}

// TestNoPaddingBelowThreshold: with a threshold higher than any queue ever
// gets, PF degenerates to UFS and delivers nothing before a frame fills.
func TestNoPaddingBelowThreshold(t *testing.T) {
	const n = 8
	sw := New(n, n) // threshold N: only full frames qualify anyway
	tr := switchtest.NewTrace(n)
	for k := 0; k < n-1; k++ {
		tr.Add(sim.Slot(k), 0, 2)
	}
	delivered := 0
	for tt := sim.Slot(0); tt < 400; tt++ {
		tr.Next(tt, sw.Arrive)
		sw.Step(func(sim.Delivery) { delivered++ })
	}
	if delivered != 0 {
		t.Fatalf("delivered %d below threshold", delivered)
	}
	if sw.PaddingInjected() != 0 {
		t.Fatal("padding injected below threshold")
	}
}

// TestFakesNeverDelivered: padding cells must die inside the switch, so
// under heavy padding every packet offered is either delivered or still
// buffered, and nothing else leaves.
func TestFakesNeverDelivered(t *testing.T) {
	const n = 8
	m := traffic.Uniform(n, 0.3)
	sw := New(n, 1) // aggressive padding
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(49)))
	offered, delivered := 0, 0
	arrive := func(p sim.Packet) {
		offered++
		sw.Arrive(p)
	}
	deliver := func(sim.Delivery) { delivered++ }
	for tt := sim.Slot(0); tt < 30000; tt++ {
		src.Next(tt, arrive)
		sw.Step(deliver)
	}
	if delivered == 0 || offered != delivered+sw.Backlog() {
		t.Fatalf("offered %d, delivered %d, backlog %d", offered, delivered, sw.Backlog())
	}
	if sw.PaddingInjected() == 0 {
		t.Fatal("expected padding at threshold 1")
	}
}

// TestAdaptiveThresholdTracksLoad: after enough windows the effective
// threshold should approximate load*N + 2.
func TestAdaptiveThresholdTracksLoad(t *testing.T) {
	const n = 16
	m := traffic.Uniform(n, 0.5)
	sw := New(n, AdaptiveThreshold)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(51)))
	for tt := sim.Slot(0); tt < 50000; tt++ {
		src.Next(tt, sw.Arrive)
		sw.Step(nil)
	}
	got := sw.thresholdFor(3)
	want := int(0.5*n) + 2
	if got < want-2 || got > want+2 {
		t.Fatalf("adaptive threshold %d, want ~%d", got, want)
	}
}

func TestConstructorValidation(t *testing.T) {
	for _, bad := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(8, %d) should panic", bad)
				}
			}()
			New(8, bad)
		}()
	}
}

// TestWasteVsDelayTradeoff: lowering the threshold increases padding.
func TestWasteVsDelayTradeoff(t *testing.T) {
	const n = 16
	waste := func(threshold int) int64 {
		m := traffic.Uniform(n, 0.4)
		sw := New(n, threshold)
		switchtest.Run(sw, m, 40000, 53)
		return sw.PaddingInjected()
	}
	low, high := waste(2), waste(14)
	if low <= high {
		t.Fatalf("padding at T=2 (%d) should exceed padding at T=14 (%d)", low, high)
	}
}
