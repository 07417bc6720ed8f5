package integration

import (
	"runtime"
	"testing"

	"sprinklers/internal/experiment"
)

// TestVOQBytesBudget bounds what one Fig. 6 point allocates (uniform 0.9,
// 2 000 + 10 000 slots, seed 1) for every architecture that buffers its VOQs
// as queue.RecordFIFOs, so that neither a private ring per VOQ nor a record
// that stores a packet ID again can come back unnoticed. Measured, bytes of
// runtime.MemStats.TotalAlloc around RunPoint (the ring column with 40-byte
// packets):
//
//	                 a packet ring   16-byte records   8-byte records     budget
//	ufs         N=32     6 591 384           906 336          582 496    640 000
//	pf          N=32     7 323 872           958 360          612 760    675 000
//	foff        N=32     5 007 176         2 986 696        2 435 080  2 680 000
//	cms         N=32                         810 456          641 384    710 000
//	sprinklers  N=64                       6 918 176        4 482 232  4 930 000
//
// Each budget is about 1.1 times the 8-byte figure, which every 16-byte
// figure exceeds. FOFF's by the least: most of its figure is the
// resequencer's per-flow windows and the center-stage bank, so its budget
// is the loosest check on the records. The test runs no subtest in
// parallel, so nothing else allocates meanwhile.
func TestVOQBytesBudget(t *testing.T) {
	for _, c := range []struct {
		alg    experiment.Algorithm
		n      int
		budget uint64
	}{
		{experiment.UFS, 32, 640_000},
		{experiment.PF, 32, 675_000},
		{experiment.FOFF, 32, 2_680_000},
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
