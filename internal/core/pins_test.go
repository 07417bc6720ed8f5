package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

// TestDeliveryTracePins pins the full delivery trace of an adaptive switch
// under both schedulers: an FNV-64a over every delivery's (ID, Seq, In,
// Out, stripe-size header, Depart), where ID is the packet's emission
// index, the number the source stamped on it when the constants were
// recorded, and the header is the one emit sets beside the delivery. The
// source flips between a Zipf and a diagonal matrix so VOQs resize in both
// directions with packets waiting, which puts the resize re-cut
// (adaptive.go) and the greedy scheduler's copy into its row bank
// (input.go) on the pinned path — the two paths the static-size
// TestPinnedPointDigests in internal/experiment never reaches. The
// constants were recorded before the VOQ storage was rewritten and any
// change to them is a change to the simulated switch.
func TestDeliveryTracePins(t *testing.T) {
	const (
		n     = 32
		phase = 15_000
		slots = 60_000
	)
	for _, tc := range []struct {
		sched Scheduler
		want  uint64
	}{
		{GatedLSF, 0x9f1ebb8e638863c1},
		{GreedyLSF, 0x58f5b1aa3046c139},
	} {
		zipf, diag := traffic.Zipf(n, 0.85, 1.2), traffic.Diagonal(n, 0.9)
		sw := MustNew(Config{
			N:         n,
			Rates:     rowsOf(zipf),
			Scheduler: tc.sched,
			Rand:      rand.New(rand.NewSource(201)),
			Adaptive:  &AdaptiveConfig{Window: 500, Gamma: 0.5, HoldWindows: 2},
		})
		src := shiftingSource(phase, rand.New(rand.NewSource(202)), zipf, diag, zipf, diag)
		h := fnv.New64a()
		var rec [40]byte
		delivered := 0
		var ids switchtest.EmissionIDs
		arrive := ids.Wrap(sw.Arrive)
		for tt := 0; tt < slots; tt++ {
			src.Next(sw.Now(), arrive)
			sw.Step(func(d delivery) {
				binary.LittleEndian.PutUint64(rec[0:], ids.Take(d.Packet))
				binary.LittleEndian.PutUint64(rec[8:], d.Packet.Seq)
				binary.LittleEndian.PutUint32(rec[16:], uint32(d.Packet.In))
				binary.LittleEndian.PutUint32(rec[20:], uint32(d.Packet.Out))
				binary.LittleEndian.PutUint64(rec[24:], uint64(sw.header))
				binary.LittleEndian.PutUint64(rec[32:], uint64(d.Depart))
				h.Write(rec[:])
				delivered++
			})
		}
		if sw.Resizes() == 0 {
			t.Fatalf("%v: no resizes; the pin does not reach the re-cut path", tc.sched)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%v: delivery trace digest %#016x over %d deliveries and %d resizes, want %#016x",
				tc.sched, got, delivered, sw.Resizes(), tc.want)
		}
	}
}
