package core

import (
	"math/rand"
	"testing"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/traffic"
)

func adaptiveSwitch(t *testing.T, n int, window int) *Switch {
	t.Helper()
	return MustNew(Config{
		N:    n,
		Rand: rand.New(rand.NewSource(81)),
		Adaptive: &AdaptiveConfig{
			Window:      int64ToSlot(window),
			HoldWindows: 2,
		},
	})
}

// TestAdaptiveGrowsHotVOQ: a VOQ whose measured rate warrants a larger
// stripe must be resized upward, to exactly F(r).
func TestAdaptiveGrowsHotVOQ(t *testing.T) {
	const n = 16
	sw := adaptiveSwitch(t, n, 1024)
	m := traffic.NewMatrix(singleFlow(n, 2, 9, 0.5))
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(82)))
	for tt := 0; tt < 40000; tt++ {
		src.Next(int64ToSlot(tt), sw.Arrive)
		sw.Step(nil)
	}
	want := dyadic.StripeSize(0.5, n)
	if got := sw.StripeSizeOf(2, 9); got != want {
		t.Fatalf("hot VOQ stripe size %d, want %d (est rate %v)", got, want, sw.EstimatedRate(2, 9))
	}
	if sw.Resizes() == 0 {
		t.Fatal("no resizes recorded")
	}
	// Cold VOQs must stay at size 1.
	if got := sw.StripeSizeOf(2, 3); got != 1 {
		t.Fatalf("cold VOQ resized to %d", got)
	}
}

// TestAdaptiveShrinksAfterCooldown: when the hot flow stops, the stripe
// must come back down.
func TestAdaptiveShrinksAfterCooldown(t *testing.T) {
	const n = 16
	sw := adaptiveSwitch(t, n, 1024)
	hot := traffic.NewMatrix(singleFlow(n, 0, 1, 0.6))
	src := shiftingSource(40000, rand.New(rand.NewSource(83)), hot, traffic.Uniform(n, 0.01))
	for tt := 0; tt < 120000; tt++ {
		src.Next(int64ToSlot(tt), sw.Arrive)
		sw.Step(nil)
	}
	if got := sw.StripeSizeOf(0, 1); got > 2 {
		t.Fatalf("stripe size %d did not shrink after cooldown (est rate %v)",
			got, sw.EstimatedRate(0, 1))
	}
}

// TestAdaptiveOrderAcrossResizes: the clearance phase must keep every flow
// in order through repeated stripe-size changes.
func TestAdaptiveOrderAcrossResizes(t *testing.T) {
	const n = 16
	sw := adaptiveSwitch(t, n, 512)
	src := shiftingSource(30000, rand.New(rand.NewSource(84)), traffic.Uniform(n, 0.2),
		traffic.Diagonal(n, 0.85), traffic.Uniform(n, 0.1), traffic.Zipf(n, 0.7, 1.2))
	maxSeen := map[[2]int]int64{}
	reordered := 0
	for tt := 0; tt < 120000; tt++ {
		src.Next(int64ToSlot(tt), sw.Arrive)
		sw.Step(func(d delivery) {
			k := [2]int{int(d.Packet.In), int(d.Packet.Out)}
			prev, ok := maxSeen[k]
			if ok && int64(d.Packet.Seq) < prev {
				reordered++
				return
			}
			maxSeen[k] = int64(d.Packet.Seq)
		})
	}
	if reordered != 0 {
		t.Fatalf("%d packets reordered across adaptive resizes", reordered)
	}
	if sw.Resizes() < 10 {
		t.Fatalf("only %d resizes happened; the workload shifts should force many", sw.Resizes())
	}
}

// TestClearancePhaseSuspendsFormation: during draining, ready packets
// accumulate beyond the old stripe size rather than being committed.
// Adaptive mode is on because committed-count bookkeeping only runs for
// adaptive switches.
func TestClearancePhaseSuspendsFormation(t *testing.T) {
	const n = 8
	sw := MustNew(Config{N: 8, Rand: rand.New(rand.NewSource(85)), Adaptive: &AdaptiveConfig{}})
	v := &sw.inputs[0].voqs[3]
	v.pending = 4
	sw.inputs[0].refreshFast(v)
	for k := 0; k < 6; k++ {
		sw.Arrive(packet{In: 0, Out: 3, Seq: uint64(k)})
	}
	sw.applyArrivals()
	if v.committed != 0 {
		t.Fatalf("committed %d during drain", v.committed)
	}
	if v.ready != 6 {
		t.Fatalf("ready %d, want 6", v.ready)
	}
	// Completing the clearance must adopt the pending size and form the
	// one full stripe that fits.
	sw.maybeFinishResize(sw.inputs[0], v)
	if v.iv.Size != 4 || v.pending != 0 {
		t.Fatalf("resize not finalized: size=%d pending=%d", v.iv.Size, v.pending)
	}
	if v.committed != 4 || v.ready != 2 {
		t.Fatalf("after resize: committed=%d ready=%d, want 4 and 2", v.committed, v.ready)
	}
}

// TestAdaptiveDefaults: zero-valued knobs must become documented defaults.
func TestAdaptiveDefaults(t *testing.T) {
	cfg := AdaptiveConfig{}.withDefaults(32)
	if cfg.Window != int64ToSlot(4*32*32) || cfg.Gamma != 0.3 || cfg.HoldWindows != 2 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

// TestEstimatedRateWithoutAdaptation falls back to the configured matrix.
func TestEstimatedRateWithoutAdaptation(t *testing.T) {
	m := traffic.Uniform(8, 0.4)
	sw := newSwitch(t, 8, m, GatedLSF, 86)
	if got := sw.EstimatedRate(1, 2); got != 0.05 {
		t.Fatalf("EstimatedRate = %v, want 0.05", got)
	}
	if MustNew(Config{N: 8}).EstimatedRate(0, 0) != 0 {
		t.Fatal("no-rates switch should estimate 0")
	}
}

// singleFlow builds a rate matrix with one nonzero entry.
func singleFlow(n, i, j int, r float64) [][]float64 {
	rates := make([][]float64, n)
	for k := range rates {
		rates[k] = make([]float64, n)
	}
	rates[i][j] = r
	return rates
}

// TestStripeSizeHistogram: the histogram must account for every VOQ and
// track a resize.
func TestStripeSizeHistogram(t *testing.T) {
	const n = 16
	sw := adaptiveSwitch(t, n, 1024)
	h := sw.StripeSizeHistogram()
	total := 0
	for size, count := range h {
		if size < 1 {
			t.Fatalf("histogram contains stripe size %d", size)
		}
		total += count
	}
	if total != n*n {
		t.Fatalf("histogram covers %d VOQs, want %d", total, n*n)
	}
	// An unprovisioned switch (no rates) sits entirely at size 1.
	if h[1] != n*n {
		t.Fatalf("zero-rate switch not all at size 1: %v", h)
	}
	// Drive one hot flow until it resizes; the histogram must move.
	m := traffic.NewMatrix(singleFlow(n, 2, 9, 0.5))
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(83)))
	for tt := 0; tt < 40000; tt++ {
		src.Next(sw.Now(), sw.Arrive)
		sw.Step(nil)
	}
	h = sw.StripeSizeHistogram()
	if h[1] == n*n {
		t.Fatal("histogram unchanged after a hot flow should have resized")
	}
}

// TestResizeRecut: when a clearance phase ends with k packets waiting, the
// re-cut forms floor(k/f') stripes of the new size f', leaves k mod f'
// ready, commits exactly the cut packets, and the switch then delivers every
// packet once under the new stripe-size header — in sequence for the gated
// scheduler (the greedy one may reorder within a stripe by design).
func TestResizeRecut(t *testing.T) {
	const n = 16
	for _, sched := range []Scheduler{GatedLSF, GreedyLSF} {
		for _, tc := range []struct{ old, size, k int }{
			{old: 2, size: 8, k: 0},   // nothing waiting
			{old: 2, size: 8, k: 7},   // grow, short of one stripe
			{old: 2, size: 8, k: 8},   // grow, exactly one
			{old: 1, size: 16, k: 50}, // grow from the fast path, k > new size
			{old: 16, size: 4, k: 15}, // shrink, k below the old size
			{old: 8, size: 2, k: 21},  // shrink, k well above both
			{old: 4, size: 1, k: 9},   // new size 1: every packet a single
			{old: 4, size: 4, k: 11},  // same size re-adopted
		} {
			sw := MustNew(Config{N: n, Scheduler: sched, Rand: rand.New(rand.NewSource(87)),
				Adaptive: &AdaptiveConfig{}})
			in := sw.inputs[2]
			v := &in.voqs[5]
			v.setSize(tc.old, sw.PrimaryPort(2, 5))
			v.pending = int32(tc.size)
			in.refreshFast(v)
			for seq := 0; seq < tc.k; seq++ {
				sw.Arrive(packet{In: 2, Out: 5, Seq: uint64(seq), Arrival: sw.Now()})
			}
			sw.applyArrivals()
			if int(v.ready) != tc.k || v.committed != 0 {
				t.Fatalf("%v %+v: draining VOQ has ready=%d committed=%d", sched, tc, v.ready, v.committed)
			}
			sw.maybeFinishResize(in, v)

			cut := tc.k / tc.size
			if v.iv.Size != tc.size || v.pending != 0 || int(v.ready) != tc.k%tc.size || int(v.committed) != cut*tc.size {
				t.Fatalf("%v %+v: after re-cut size=%d pending=%d ready=%d committed=%d",
					sched, tc, v.iv.Size, v.pending, v.ready, v.committed)
			}
			if sched == GatedLSF {
				if got := in.queuedStripes(v.iv); got != cut {
					t.Fatalf("%+v: %d stripes queued for %v, want %d", tc, got, v.iv, cut)
				}
			} else if got := in.rows.Len(); got != cut*tc.size {
				t.Fatalf("%+v: %d cells in the greedy rows, want %d", tc, got, cut*tc.size)
			}
			if in.buffered != tc.k {
				t.Fatalf("%v %+v: input holds %d packets, want %d", sched, tc, in.buffered, tc.k)
			}

			// Top the remainder up to one more stripe, then drain.
			total := tc.k
			for ; total%tc.size != 0; total++ {
				sw.Arrive(packet{In: 2, Out: 5, Seq: uint64(total), Arrival: sw.Now()})
			}
			seen := make([]bool, total)
			delivered := 0
			for tt := 0; tt < 8*n*n && delivered < total; tt++ {
				sw.Step(func(d delivery) {
					seq := int(d.Packet.Seq)
					if sched == GatedLSF {
						seq = delivered
					}
					want := packet{In: 2, Out: 5, Seq: uint64(seq)}
					if d.Packet != want || int(sw.header) != tc.size || seen[seq] {
						t.Fatalf("%v %+v: delivery %d is %+v with header %d, want %+v with header %d once",
							sched, tc, delivered, d.Packet, sw.header, want, tc.size)
					}
					seen[seq] = true
					delivered++
				})
			}
			if delivered != total || sw.Backlog() != 0 || v.committed != 0 || v.q.Len() != 0 {
				t.Fatalf("%v %+v: delivered %d of %d, backlog %d, committed %d, %d records left",
					sched, tc, delivered, total, sw.Backlog(), v.committed, v.q.Len())
			}
		}
	}
}
