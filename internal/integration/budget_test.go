package integration

import (
	"math/rand"
	"runtime"
	"testing"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
	"sprinklers/internal/traffic"
)

// TestVOQBytesBudget bounds what one Fig. 6 point allocates (uniform 0.9,
// 2 000 + 10 000 slots, seed 1) for every architecture, so that neither a
// private ring per VOQ, nor a VOQ record that stores a packet ID again, nor
// a whole packet in a buffer past the VOQs can come back unnoticed.
// Measured, bytes of runtime.MemStats.TotalAlloc around RunPoint; the first
// three columns hold whole packets past the VOQs, the fourth queue.PortRecords
// in the center stage, the load-balanced and hashing input queues and FOFF's
// pacing FIFOs, and 8-byte arrival slots in FOFF's resequencing windows:
//
//	                     VOQs as     16-byte VOQ     8-byte VOQ    records past
//	                 packet rings        records        records        the VOQs      budget
//	load-balanced N=32                                  790 904         657 400     723 000
//	tcp-hashing   N=32                               17 286 200      13 277 224  14 600 000
//	ufs           N=32  6 591 384        906 336        582 496         582 480     640 000
//	pf            N=32  7 323 872        958 360        612 760         612 760     675 000
//	foff          N=32  5 007 176      2 986 696      2 435 080       1 267 336   1 395 000
//	cms           N=32                   810 456        641 384         624 616     710 000
//	sprinklers    N=64                 6 918 176      4 482 232       4 482 624   4 930 000
//
// Each budget is about 1.1 times the last figure (CMS's 1.14), which every
// figure before it exceeds; UFS, PF and Sprinklers keep no packet past their
// VOQs, so their last two columns agree. The load-balanced and hashing
// switches have no VOQs: their third column is whole packets in their input
// queues and center stage. The test runs no subtest in parallel, so nothing
// else allocates meanwhile.
func TestVOQBytesBudget(t *testing.T) {
	for _, c := range []struct {
		alg    experiment.Algorithm
		n      int
		budget uint64
	}{
		{experiment.LoadBalanced, 32, 723_000},
		{experiment.TCPHashing, 32, 14_600_000},
		{experiment.UFS, 32, 640_000},
		{experiment.PF, 32, 675_000},
		{experiment.FOFF, 32, 1_395_000},
		{experiment.CMS, 32, 710_000},
		{experiment.Sprinklers, 64, 4_930_000},
	} {
		cfg := experiment.Config{N: c.n, Traffic: experiment.UniformTraffic, Warmup: 2000, Slots: 10000, Seed: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := experiment.RunPoint(c.alg, cfg, 0.9)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if p.Delivered == 0 {
			t.Fatalf("%s delivered nothing", c.alg)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s N=%d: %d B, budget %d", c.alg, c.n, got, c.budget)
		if got > c.budget {
			t.Errorf("%s N=%d point allocated %d B, budget %d", c.alg, c.n, got, c.budget)
		}
	}
}

// TestEveryArchitectureZeroAllocSteadyState: for every registered
// architecture at N = 8 and 32 under uniform Bernoulli traffic at load 0.5,
// once 2 000 frames have taken its queues and pools to their working sets,
// a whole N-slot frame (arrivals and Step) allocates nothing.
func TestEveryArchitectureZeroAllocSteadyState(t *testing.T) {
	for _, name := range registry.ArchitectureNames() {
		for _, n := range []int{8, 32} {
			m := traffic.Uniform(n, 0.5)
			sw, err := experiment.NewSwitchOpts(experiment.Algorithm(name), m, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			src := traffic.NewBernoulli(m, rand.New(rand.NewSource(int64(n))))
			arrive := sw.Arrive
			frame := func() {
				for k := 0; k < n; k++ {
					src.Next(sw.Now(), arrive)
					sw.Step(nil)
				}
			}
			for k := 0; k < 2000; k++ {
				frame()
			}
			if allocs := testing.AllocsPerRun(10, frame); allocs != 0 {
				t.Errorf("%s N=%d: steady-state frame allocated %v times, want 0", name, n, allocs)
			}
		}
	}
}
