package integration

import (
	"runtime"
	"testing"

	"sprinklers/internal/experiment"
)

// TestVOQBytesBudget bounds what one Fig. 6 point of a frame-accumulating
// baseline allocates (N = 32, uniform 0.9, 2 000 + 10 000 slots, seed 1), so
// that a private ring per VOQ cannot come back unnoticed. Measured, bytes of
// runtime.MemStats.TotalAlloc around RunPoint:
//
//	       a packet ring per VOQ      RecordFIFO on per-input pools   budget
//	ufs    6 591 384                  2 253 160                       half the former
//	pf     7 323 872                  3 226 192                       half the former
//	foff   5 007 176                  3 172 600                       3 600 000
//
// FOFF cannot reach half: 2.5 MB of both its figures are the resequencer's
// per-flow windows and the center-stage bank, which no VOQ change touches.
// The test runs no subtest in parallel, so nothing else allocates meanwhile.
func TestVOQBytesBudget(t *testing.T) {
	for _, c := range []struct {
		alg    experiment.Algorithm
		budget uint64
	}{
		{experiment.UFS, 6_591_384 / 2},
		{experiment.PF, 7_323_872 / 2},
		{experiment.FOFF, 3_600_000},
	} {
		cfg := experiment.Config{N: 32, Traffic: experiment.UniformTraffic, Warmup: 2000, Slots: 10000, Seed: 1}
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
		if got := after.TotalAlloc - before.TotalAlloc; got > c.budget {
			t.Errorf("%s point allocated %d B, budget %d", c.alg, got, c.budget)
		}
	}
}
