package integration

import (
	"runtime"
	"testing"

	"sprinklers/internal/experiment"
)

// TestVOQBytesBudget bounds what one Fig. 6 point allocates (uniform 0.9,
// 2 000 + 10 000 slots, seed 1) for every architecture that buffers its VOQs
// as queue.RecordFIFOs, so that neither a private ring per VOQ nor a record
// that stores its Seq again can come back unnoticed. Measured, bytes of
// runtime.MemStats.TotalAlloc around RunPoint:
//
//	                 a packet ring   24-byte records   16-byte records   budget
//	ufs         N=32     6 591 384         1 169 936           906 336   1 000 000
//	pf          N=32     7 323 872         1 244 312           958 360   1 050 000
//	foff        N=32     5 007 176         3 168 840         2 986 696   3 300 000
//	cms         N=32                         936 456           810 456     890 000
//	sprinklers  N=64                       9 038 728         6 917 816   7 600 000
//
// Each budget is about 1.1 times the 16-byte figure, which every 24-byte
// figure exceeds but FOFF's: 2.5 MB of it is the resequencer's per-flow
// windows and the center-stage bank, so its budget only catches the rings.
// The test runs no subtest in parallel, so nothing else allocates meanwhile.
func TestVOQBytesBudget(t *testing.T) {
	for _, c := range []struct {
		alg    experiment.Algorithm
		n      int
		budget uint64
	}{
		{experiment.UFS, 32, 1_000_000},
		{experiment.PF, 32, 1_050_000},
		{experiment.FOFF, 32, 3_300_000},
		{experiment.CMS, 32, 890_000},
		{experiment.Sprinklers, 64, 7_600_000},
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
