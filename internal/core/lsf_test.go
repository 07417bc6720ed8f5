package core

import (
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/traffic"
)

// TestStripeFormationAndQueueing (white box): packets accumulate in the
// ready queue until exactly F(r) have arrived, then a stripe appears in the
// interval FIFO.
func TestStripeFormationAndQueueing(t *testing.T) {
	const n = 8
	rates := singleFlow(n, 0, 3, 4.0/64) // F = 4
	// Adaptive mode is on because the committed-count bookkeeping this test
	// inspects only runs for adaptive switches.
	sw := MustNew(Config{N: n, Rates: rates, Rand: rand.New(rand.NewSource(111)),
		Adaptive: &AdaptiveConfig{}})
	v := &sw.inputs[0].voqs[3]
	if v.iv.Size != 4 {
		t.Fatalf("stripe size %d, want 4", v.iv.Size)
	}
	iv := v.iv
	for k := 0; k < 3; k++ {
		sw.Arrive(packet{In: 0, Out: 3, Seq: uint64(k)})
	}
	sw.applyArrivals()
	if got := sw.inputs[0].queuedStripes(iv); got != 0 {
		t.Fatalf("stripe formed early: %d", got)
	}
	if v.ready != 3 {
		t.Fatalf("ready %d", v.ready)
	}
	sw.Arrive(packet{In: 0, Out: 3, Seq: 3})
	sw.applyArrivals()
	if got := sw.inputs[0].queuedStripes(iv); got != 1 {
		t.Fatalf("stripes queued %d, want 1", got)
	}
	if v.ready != 0 || v.committed != 4 {
		t.Fatalf("ready %d committed %d", v.ready, v.committed)
	}
}

// TestStripeHeaderSet: every packet crossing the switch carries the stripe
// size header of Sec. 3.4.3.
func TestStripeHeaderSet(t *testing.T) {
	const n = 8
	m := traffic.Diagonal(n, 0.6)
	sw := newSwitch(t, n, m, GatedLSF, 112)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(113)))
	checked := 0
	for tt := 0; tt < 20000; tt++ {
		src.Next(int64ToSlot(tt), sw.Arrive)
		sw.Step(func(d delivery) {
			checked++
			want := sw.StripeSizeOf(int(d.Packet.In), int(d.Packet.Out))
			if int(sw.header) != want {
				t.Fatalf("packet header %d, VOQ stripe size %d", sw.header, want)
			}
		})
	}
	if checked == 0 {
		t.Fatal("no deliveries")
	}
}

// TestStripeBurstiness: with the gated scheduler, a stripe's packets arrive
// at the output in consecutive slots (the "one burst" guarantee), observed
// for a single uncontended VOQ.
func TestStripeBurstiness(t *testing.T) {
	const n = 8
	rates := singleFlow(n, 2, 6, 4.0/64) // F = 4
	sw := MustNew(Config{N: n, Rates: rates, Rand: rand.New(rand.NewSource(114))})
	m := traffic.NewMatrix(rates)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(115)))
	var lastDepart sim.Slot
	var lastSeq uint64
	first := true
	for tt := 0; tt < 100000; tt++ {
		src.Next(int64ToSlot(tt), sw.Arrive)
		sw.Step(func(d delivery) {
			if !first && d.Packet.Seq%4 != 0 {
				if d.Packet.Seq == lastSeq+1 && d.Depart != lastDepart+1 {
					t.Fatalf("intra-stripe gap: seq %d at %d, seq %d at %d",
						lastSeq, lastDepart, d.Packet.Seq, d.Depart)
				}
			}
			first = false
			lastSeq = d.Packet.Seq
			lastDepart = d.Depart
		})
	}
}

// TestLSFPriority (white box): when a size-4 stripe and a size-1 stripe are
// both eligible at the same port, the larger starts first.
func TestLSFPriority(t *testing.T) {
	const n = 8
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	rates[0][1] = 4.0 / 64 // F=4
	rates[0][2] = 0.5 / 64 // F=1
	sw := MustNew(Config{N: n, Rates: rates, Rand: rand.New(rand.NewSource(116))})
	big := &sw.inputs[0].voqs[1]
	small := &sw.inputs[0].voqs[2]
	// Force both intervals to start at port 0 for a guaranteed collision.
	big.setSize(4, 0)
	sw.inputs[0].refreshFast(big)
	small.setSize(1, 0)
	sw.inputs[0].refreshFast(small)
	// Preload: the small stripe "arrives" first, then the big one fills.
	sw.Arrive(packet{In: 0, Out: 2, Seq: 0})
	for k := 0; k < 4; k++ {
		sw.Arrive(packet{In: 0, Out: 1, Seq: uint64(k)})
	}
	var outs []int
	for tt := 0; tt < 4*n && len(outs) < 5; tt++ {
		sw.Step(func(d delivery) { outs = append(outs, int(d.Packet.Out)) })
	}
	if len(outs) != 5 {
		t.Fatalf("delivered %d of 5", len(outs))
	}
	// The big stripe's four packets must cross before the small one.
	for _, out := range outs[:4] {
		if out != 1 {
			t.Fatalf("delivery order %v: LSF should serve the size-4 stripe first", outs)
		}
	}
}

// TestIntervalOfZeroRateVOQ: zero-rate VOQs get size-1 stripes so a stray
// packet is not stranded waiting for companions.
func TestIntervalOfZeroRateVOQ(t *testing.T) {
	const n = 8
	sw := MustNew(Config{N: n, Rates: singleFlow(n, 0, 0, 0.5), Rand: rand.New(rand.NewSource(117))})
	if got := sw.StripeSizeOf(3, 5); got != 1 {
		t.Fatalf("zero-rate VOQ stripe size %d", got)
	}
	sw.Arrive(packet{In: 3, Out: 5})
	delivered := false
	for tt := 0; tt < 4*n && !delivered; tt++ {
		sw.Step(func(d delivery) { delivered = true })
	}
	if !delivered {
		t.Fatal("stray packet stranded")
	}
}
