package stats

import (
	"testing"

	"sprinklers/internal/sim"
)

// tick drives OnSlot for every slot in [0, total).
func tick(w *Windowed, total sim.Slot, backlog func() int) {
	for t := sim.Slot(0); t < total; t++ {
		w.OnSlot(t, backlog)
	}
}

func TestWindowedBoundaries(t *testing.T) {
	// 1000 measured slots after 200 warmup, 3 windows: 333, 333, and the
	// last absorbs the remainder (334).
	w := NewWindowed(4, 200, 1000, 3)
	tick(w, 1200, func() int { return 7 })
	pts := w.Points()
	if len(pts) != 3 {
		t.Fatalf("got %d windows, want 3", len(pts))
	}
	wantBounds := [][2]sim.Slot{{200, 533}, {533, 866}, {866, 1200}}
	for i, p := range pts {
		if p.Window != i || p.Start != wantBounds[i][0] || p.End != wantBounds[i][1] {
			t.Errorf("window %d: [%d,%d), want [%d,%d)", i, p.Start, p.End, wantBounds[i][0], wantBounds[i][1])
		}
		if p.Backlog != 7 {
			t.Errorf("window %d backlog %v, want 7", i, p.Backlog)
		}
	}
}

func TestWindowedCountsAndDelay(t *testing.T) {
	w := NewWindowed(4, 0, 100, 2)
	src := w.WrapSource(sliceSource{
		{Arrival: 10, In: 0, Out: 1},
		{Arrival: 60, In: 0, Out: 1, Seq: 1},
		{Arrival: 70, In: 1, Out: 2},
	})
	drive := func(t sim.Slot) {
		src.Next(t, func(sim.Packet) {})
	}
	for t := sim.Slot(0); t < 100; t++ {
		drive(t)
		switch t {
		case 20:
			w.Observe(sim.Delivery{Packet: sim.Packet{Arrival: 10, In: 0, Out: 1}, Depart: 20})
		case 80:
			w.Observe(sim.Delivery{Packet: sim.Packet{Arrival: 70, In: 1, Out: 2}, Depart: 80})
		case 90:
			w.Observe(sim.Delivery{Packet: sim.Packet{Arrival: 60, In: 0, Out: 1, Seq: 1}, Depart: 90})
		}
		w.OnSlot(t, func() int { return 0 })
	}
	pts := w.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d windows", len(pts))
	}
	if pts[0].Offered != 1 || pts[0].Delivered != 1 {
		t.Errorf("window 0 offered/delivered %d/%d, want 1/1", pts[0].Offered, pts[0].Delivered)
	}
	if pts[0].MeanDelay != 10 {
		t.Errorf("window 0 mean delay %v, want 10", pts[0].MeanDelay)
	}
	if pts[0].Throughput != 1 {
		t.Errorf("window 0 throughput %v", pts[0].Throughput)
	}
	if pts[1].Offered != 2 || pts[1].Delivered != 2 {
		t.Errorf("window 1 offered/delivered %d/%d, want 2/2", pts[1].Offered, pts[1].Delivered)
	}
	if want := (10.0 + 30.0) / 2; pts[1].MeanDelay != want {
		t.Errorf("window 1 mean delay %v, want %v", pts[1].MeanDelay, want)
	}
}

// sliceSource emits the configured packets at their arrival slots.
type sliceSource []sim.Packet

func (s sliceSource) N() int { return 4 }

func (s sliceSource) Next(t sim.Slot, emit func(sim.Packet)) {
	for _, p := range s {
		if p.Arrival == t {
			emit(p)
		}
	}
}

// TestWindowedReorderAcrossBoundary: an out-of-order delivery whose
// predecessor departed in an earlier window must still be flagged, charged
// to the window in which it departs.
func TestWindowedReorderAcrossBoundary(t *testing.T) {
	w := NewWindowed(4, 0, 100, 2)
	// Seq 1 departs in window 0, seq 0 (same flow) in window 1: reordered.
	w.Observe(sim.Delivery{Packet: sim.Packet{In: 0, Out: 0, Seq: 1, Arrival: 5}, Depart: 10})
	tick(w, 50, func() int { return 0 })
	w.Observe(sim.Delivery{Packet: sim.Packet{In: 0, Out: 0, Seq: 0, Arrival: 6}, Depart: 60})
	for t := sim.Slot(50); t < 100; t++ {
		w.OnSlot(t, func() int { return 0 })
	}
	pts := w.Points()
	if pts[0].Reordered != 0 {
		t.Errorf("window 0 reordered %d, want 0", pts[0].Reordered)
	}
	if pts[1].Reordered != 1 {
		t.Errorf("window 1 reordered %d, want 1 (boundary-crossing reorder lost)", pts[1].Reordered)
	}
	if n := w.ReorderDetector().Reordered(); n != 1 {
		t.Errorf("total reordered %d", n)
	}
}

func TestWindowedWarmupIgnored(t *testing.T) {
	w := NewWindowed(4, 500, 500, 5)
	tick(w, 400, func() int { return 0 })
	if len(w.Points()) != 0 {
		t.Fatal("windows closed during warmup")
	}
	// Offered during warmup must not count.
	src := w.WrapSource(sliceSource{{Arrival: 100}})
	src.Next(100, func(sim.Packet) {})
	tick(w, 1000, func() int { return 0 })
	if got := w.Points()[0].Offered; got != 0 {
		t.Fatalf("warmup arrival counted as offered: %d", got)
	}
}

func TestWindowedRejectsBadCount(t *testing.T) {
	for _, windows := range []int{0, -1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("windows=%d accepted for 100 slots", windows)
				}
			}()
			NewWindowed(4, 0, 100, windows)
		}()
	}
}
