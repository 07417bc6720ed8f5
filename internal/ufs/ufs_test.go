package ufs

import (
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

func TestOrderingAcrossLoads(t *testing.T) {
	for _, load := range []float64{0.2, 0.6, 0.9} {
		m := traffic.Uniform(16, load)
		sw := New(16)
		r := switchtest.Run(sw, m, 60000, 17)
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
	}
}

func TestOrderingDiagonalAndRandom(t *testing.T) {
	m := traffic.Diagonal(16, 0.85)
	sw := New(16)
	r := switchtest.Run(sw, m, 60000, 18)
	switchtest.CheckOrdered(t, r)

	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 3; trial++ {
		m := switchtest.RandomAdmissible(8, 0.8, rng)
		sw := New(8)
		r := switchtest.Run(sw, m, 40000, rng.Int63())
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
	}
}

func TestOrderingUnderBurstyArrivals(t *testing.T) {
	m := traffic.Uniform(8, 0.7)
	sw := New(8)
	src := traffic.NewOnOff(m, 24, rand.New(rand.NewSource(20)))
	delay := &stats.Delay{}
	reorder := stats.NewReorder(8)
	sim.Run(sw, src, stats.Multi{delay, reorder}, sim.WithWarmup(10000), sim.WithSlots(60000))
	if reorder.Reordered() != 0 {
		t.Fatalf("reordered %d packets under bursty arrivals", reorder.Reordered())
	}
	if delay.Count() == 0 {
		t.Fatal("no deliveries")
	}
}

// TestFullFrameOnly: with fewer than N packets in every VOQ, UFS must not
// transmit anything; completing the frame releases all N packets.
func TestFullFrameOnly(t *testing.T) {
	const n = 8
	sw := New(n)
	tr := switchtest.NewTrace(n)
	for k := 0; k < n-1; k++ { // one short of a frame
		tr.Add(sim.Slot(k), 0, 3)
	}
	tr.Add(600, 0, 3) // the completing packet, much later
	delivered := 0
	for tt := sim.Slot(0); tt < 599; tt++ {
		tr.Next(tt, sw.Arrive)
		sw.Step(func(sim.Delivery) { delivered++ })
	}
	if delivered != 0 {
		t.Fatalf("UFS delivered %d packets without a full frame", delivered)
	}
	if sw.Backlog() != n-1 {
		t.Fatalf("backlog %d, want %d", sw.Backlog(), n-1)
	}
	for tt := sim.Slot(599); tt < 700; tt++ {
		tr.Next(tt, sw.Arrive)
		sw.Step(func(sim.Delivery) { delivered++ })
	}
	if delivered != n {
		t.Fatalf("delivered %d after completing the frame, want %d", delivered, n)
	}
	if sw.Backlog() != 0 {
		t.Fatalf("backlog %d after drain", sw.Backlog())
	}
}

func TestPendingFrames(t *testing.T) {
	const n = 4
	sw := New(n)
	tr := switchtest.NewTrace(n)
	slot := sim.Slot(0)
	for k := 0; k < 3*n; k++ { // three full frames for output 1
		tr.Add(slot, 2, 1)
		slot++
	}
	for tt := sim.Slot(0); tt < slot; tt++ {
		tr.Next(tt, sw.Arrive)
	}
	if got := sw.PendingFrames(2); got != 3 {
		t.Fatalf("PendingFrames = %d, want 3", got)
	}
}

// TestLightLoadDelayIsFrameBound: the defining weakness — at light load the
// mean delay is dominated by frame accumulation, roughly (N-1)/(2r) slots
// for per-VOQ rate r, far above the fabric latency.
func TestLightLoadDelayIsFrameBound(t *testing.T) {
	const n = 16
	m := traffic.Uniform(n, 0.2)
	sw := New(n)
	r := switchtest.Run(sw, m, 200000, 21)
	perVOQ := 0.2 / n
	accumulation := float64(n-1) / 2 / perVOQ
	if r.Delay.Mean() < accumulation/3 {
		t.Fatalf("UFS light-load delay %.0f too small; accumulation alone predicts ~%.0f",
			r.Delay.Mean(), accumulation)
	}
}

// TestFrameBurstAtOutput: every frame must arrive at its output in N
// consecutive slots (the "one burst" property the frame grid enforces).
func TestFrameBurstAtOutput(t *testing.T) {
	const n = 8
	m := traffic.Uniform(n, 0.8)
	sw := New(n)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(23)))
	type key struct{ in, out int }
	lastSlot := map[key]sim.Slot{}
	lastSeq := map[key]uint64{}
	var violations int
	obs := sim.ObserverFunc(func(d sim.Delivery) {
		k := key{int(d.Packet.In), int(d.Packet.Out)}
		if s, ok := lastSeq[k]; ok && d.Packet.Seq == s+1 && d.Packet.Seq%uint64(n) != 0 {
			// Same frame as the previous packet: must be the next slot.
			if d.Depart != lastSlot[k]+1 {
				violations++
			}
		}
		lastSeq[k] = d.Packet.Seq
		lastSlot[k] = d.Depart
	})
	sim.Run(sw, src, obs, sim.WithWarmup(5000), sim.WithSlots(50000))
	if violations != 0 {
		t.Fatalf("%d intra-frame delivery gaps; frames not arriving in one burst", violations)
	}
}
