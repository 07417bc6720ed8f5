package core

import (
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/traffic"
)

// driveSlots advances the switch through n slots of src traffic.
func driveSlots(sw *Switch, src sim.Source, arrive func(sim.Packet), n int) {
	for i := 0; i < n; i++ {
		src.Next(sw.Now(), arrive)
		sw.Step(nil)
	}
}

// TestGatedStepZeroAllocSteadyState is the allocation regression guard for
// the simulation hot path: after a warmup long enough to exercise stripe
// formation and to take the chunk pools and every queue to their
// working-set high-water marks, a steady-state slot — arrivals, stripe
// formation, both fabric permutations, LSF service and delivery — must not
// allocate at all.
//
// The workload mixes stripe sizes (a Zipf rate matrix spans F=1 up to
// multi-packet stripes at N=32) so both the size-1 direct path and the
// chunk-queued multi-packet stripe path are on the measured hot path. The
// run is single-goroutine and seeded, so the measurement is deterministic.
func TestGatedStepZeroAllocSteadyState(t *testing.T) {
	const n = 32
	m := traffic.Zipf(n, 0.85, 1.2)
	rates := make([][]float64, n)
	sized := map[int]bool{}
	for i := range rates {
		rates[i] = m.Row(i)
	}
	sw := MustNew(Config{N: n, Rates: rates, Rand: rand.New(rand.NewSource(41))})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sized[sw.StripeSizeOf(i, j)] = true
		}
	}
	if len(sized) < 2 {
		t.Fatalf("workload degenerate: only stripe sizes %v in play", sized)
	}
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(42)))
	arrive := sw.Arrive
	// Warm past every transient: each input's chunk pool, the interval
	// FIFOs and the slab banks reach their occupancy high-water marks.
	driveSlots(sw, src, arrive, 60_000)

	if allocs := testing.AllocsPerRun(200, func() {
		src.Next(sw.Now(), arrive)
		sw.Step(nil)
	}); allocs != 0 {
		t.Fatalf("steady-state Step allocated %v times per slot, want 0", allocs)
	}
}

// TestGreedyStepZeroAllocSteadyState covers the same guard for the greedy
// row-scan scheduler, whose storage (the per-input N x levels row bank) is
// distinct from the gated path's.
func TestGreedyStepZeroAllocSteadyState(t *testing.T) {
	const n = 32
	m := traffic.Zipf(n, 0.85, 1.2)
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = m.Row(i)
	}
	sw := MustNew(Config{N: n, Rates: rates, Scheduler: GreedyLSF,
		Rand: rand.New(rand.NewSource(43))})
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(44)))
	arrive := sw.Arrive
	driveSlots(sw, src, arrive, 60_000)

	if allocs := testing.AllocsPerRun(200, func() {
		src.Next(sw.Now(), arrive)
		sw.Step(nil)
	}); allocs != 0 {
		t.Fatalf("steady-state greedy Step allocated %v times per slot, want 0", allocs)
	}
}

// TestStripedStepZeroAllocSteadyState is the same guard in the regime the
// sprinklers-n128 benchmark workload runs, in miniature: uniform traffic at
// load 0.9 gives every VOQ a stripe of size N, so every packet goes through
// a chunk queue and every input cycles through accumulate-and-burst. One
// accumulation cycle is N^2/0.9 slots (1 138 at N = 32); the warm-up spans
// some fifty of them.
func TestStripedStepZeroAllocSteadyState(t *testing.T) {
	const n = 32
	m := traffic.Uniform(n, 0.9)
	for _, sched := range []Scheduler{GatedLSF, GreedyLSF} {
		sw := newSwitch(t, n, m, sched, 45)
		if h := sw.StripeSizeHistogram(); h[n] != n*n {
			t.Fatalf("workload degenerate: stripe sizes %v, want all %d", h, n)
		}
		src := traffic.NewBernoulli(m, rand.New(rand.NewSource(46)))
		arrive := sw.Arrive
		driveSlots(sw, src, arrive, 60_000)

		if allocs := testing.AllocsPerRun(2000, func() {
			src.Next(sw.Now(), arrive)
			sw.Step(nil)
		}); allocs != 0 {
			t.Fatalf("%v: steady-state Step allocated %v times per slot, want 0", sched, allocs)
		}
	}
}

// TestSizeOneStepZeroAllocSteadyState is the same guard at a size the N = 32
// guards above do not reach: N = 256 with every stripe forced to size 1
// (DefaultStripeSize: 1), uniform Bernoulli traffic at load 0.9. Size-1
// stripes skip Eq. 1's O(N^2) accumulation transient, so 12·N warm-up slots
// take every queue to its high-water mark even at this size.
func TestSizeOneStepZeroAllocSteadyState(t *testing.T) {
	const n = 256
	sw := MustNew(Config{N: n, DefaultStripeSize: 1, Rand: rand.New(rand.NewSource(1))})
	src := traffic.NewBernoulli(traffic.Uniform(n, 0.9), rand.New(rand.NewSource(1)))
	arrive := sw.Arrive
	driveSlots(sw, src, arrive, 12*n)

	if allocs := testing.AllocsPerRun(200, func() {
		src.Next(sw.Now(), arrive)
		sw.Step(nil)
	}); allocs != 0 {
		t.Fatalf("steady-state Step at N = %d allocated %v times per slot, want 0", n, allocs)
	}
}

// TestArrivalsWaitForStep: Arrive checks the ports and holds the packet
// until Step applies it. In between, the packet is in Backlog but at no
// input; an out-of-range port panics inside Arrive, not later in Step; and
// the pending slice keeps the capacity of N it was built with through a
// saturated run, so, as the zero-allocation guards above also show, holding
// a slot's arrivals never reallocates.
func TestArrivalsWaitForStep(t *testing.T) {
	const n = 8
	sw := newSwitch(t, n, traffic.Uniform(n, 1), GatedLSF, 47)
	sw.Arrive(packet{In: 2, Out: 5})
	if got := sw.Backlog(); got != 1 {
		t.Fatalf("backlog %d between Arrive and Step, want 1", got)
	}
	if got := sw.inputs[2].buffered; got != 0 {
		t.Fatalf("input 2 holds %d packets before Step, want 0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Arrive accepted output port N")
			}
		}()
		sw.Arrive(packet{In: 0, Out: n})
	}()
	sw.Step(nil)
	if got := sw.Backlog(); got != 1 || len(sw.pending) != 0 {
		t.Fatalf("after Step: backlog %d with %d pending, want 1 and 0", got, len(sw.pending))
	}

	// The source numbers flow (2, 5) from 0 too; its packets follow the one
	// offered above.
	src := traffic.NewBernoulli(traffic.Uniform(n, 1), rand.New(rand.NewSource(48)))
	driveSlots(sw, src, func(p packet) {
		if p.In == 2 && p.Out == 5 {
			p.Seq++
		}
		sw.Arrive(p)
	}, 20*n*n)
	if got := cap(sw.pending); got != n {
		t.Fatalf("pending slice has capacity %d after a saturated run, want %d", got, n)
	}
}

// TestFlowGapPanics: a VOQ holds no Seq, only its head's, so a packet that
// does not follow the flow's last buffered one cannot be given its Seq back
// at departure. Arrive accepts it; the Step that buffers it panics.
func TestFlowGapPanics(t *testing.T) {
	const n = 8
	sw := newSwitch(t, n, traffic.Uniform(n, 1), GatedLSF, 49) // stripes of 8: packets wait
	sw.Arrive(packet{In: 2, Out: 5, Seq: 0})
	sw.Step(nil)
	sw.Arrive(packet{In: 2, Out: 5, Seq: 2, Arrival: sw.Now()})
	defer func() {
		if recover() == nil {
			t.Fatal("Step buffered Seq 2 behind Seq 0 of flow (2, 5)")
		}
	}()
	sw.Step(nil)
}
