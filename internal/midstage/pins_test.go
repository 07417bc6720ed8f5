package midstage

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/switchtest"
)

// TestSpreaderTracePins pins the full delivery trace of the full-frame
// switch core under the UFS and the PF idle policies: an FNV-64a over every
// delivery's (ID, Seq, In, Out, Depart), then the padding count and the
// final backlog; ID is the packet's emission index, the number the
// arrivals stamped on it when the constants were recorded. Skewed bursty
// arrivals at load 0.9 keep several frames contending for an output's sweep
// and, with padding, put short frames on the path. TestPinnedPointDigests in
// internal/experiment pins UFS and PF points only through their summary
// statistics; this pins each packet. The constants were recorded before
// frames stopped crossing the center stage cell by cell, and any change to
// them is a change to the simulated switch.
func TestSpreaderTracePins(t *testing.T) {
	const slots = 30_000
	for _, tc := range []struct {
		policy string
		n      int
		want   uint64
	}{
		{"ufs-idle", 16, 0x194b7307db39391e},
		{"pf-pad", 16, 0x348d9e50370455d0},
		{"ufs-idle", 32, 0x2a6037477ddb4e77},
		{"pf-pad", 32, 0xdd82491922d926c7},
	} {
		sp := NewSpreader(tc.n)
		var pad func(int) int
		if tc.policy == "pf-pad" {
			pad = padLongest(sp.VOQLen, tc.n, tc.n/4)
		}
		next := skewedArrivals(tc.n, 0.9, 4, 77)
		h := fnv.New64a()
		var rec [32]byte
		delivered := 0
		var ids switchtest.EmissionIDs
		arrive := ids.Wrap(sp.Arrive)
		deliver := func(d sim.Delivery) {
			binary.LittleEndian.PutUint64(rec[0:], ids.Take(d.Packet))
			binary.LittleEndian.PutUint64(rec[8:], d.Packet.Seq)
			binary.LittleEndian.PutUint32(rec[16:], uint32(d.Packet.In))
			binary.LittleEndian.PutUint32(rec[20:], uint32(d.Packet.Out))
			binary.LittleEndian.PutUint64(rec[24:], uint64(d.Depart))
			h.Write(rec[:])
			delivered++
		}
		for now := sim.Slot(0); now < slots; now++ {
			next(now, arrive)
			sp.Step(now, deliver, pad)
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(sp.PaddingInjected()))
		binary.LittleEndian.PutUint64(rec[8:], uint64(sp.Backlog()))
		h.Write(rec[:16])
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s/N-%d: delivery trace digest %#016x over %d deliveries (padding %d, backlog %d), want %#016x",
				tc.policy, tc.n, got, delivered, sp.PaddingInjected(), sp.Backlog(), tc.want)
		}
	}
}
