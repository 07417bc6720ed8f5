package midstage

import (
	"math/rand"
	"strings"
	"testing"

	"sprinklers/internal/sim"
)

// insertFrame spreads a synthetic frame of n cells starting at intermediate
// port start, one port per slot beginning at slot t0, the way an input port
// would. It returns the slot after the last insertion.
func insertFrame(s *FrameStage, n int, in, out int, frameID, flowSeq uint64, start int, t0 sim.Slot, seqBase uint64) sim.Slot {
	for u := 0; u < n; u++ {
		s.Enqueue((start+u)%n, Cell{
			Pkt:     sim.Packet{In: int32(in), Out: int32(out), Seq: seqBase + uint64(u), Arrival: t0},
			FrameID: frameID,
			FlowSeq: flowSeq,
			Index:   int32(u),
		})
	}
	return t0 + sim.Slot(n)
}

func drain(s *FrameStage, n int, from sim.Slot, slots int) []sim.Delivery {
	var out []sim.Delivery
	for tt := from; tt < from+sim.Slot(slots); tt++ {
		s.Step(tt, func(d sim.Delivery) { out = append(out, d) })
	}
	return out
}

func TestSingleFrameDeliveredInOrderAndBurst(t *testing.T) {
	const n = 8
	s := NewFrameStage(n)
	insertFrame(s, n, 0, 3, 1, 0, 5, 0, 0)
	got := drain(s, n, 1, 5*n)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for u, d := range got {
		if d.Packet.Seq != uint64(u) {
			t.Fatalf("delivery %d has seq %d", u, d.Packet.Seq)
		}
		if u > 0 && got[u].Depart != got[u-1].Depart+1 {
			t.Fatalf("frame did not arrive in one burst: gap at %d", u)
		}
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog %d", s.Backlog())
	}
}

// TestSameFlowFramesCannotInvert: a later frame of the same flow whose
// start port would be swept first must still wait for the earlier frame.
func TestSameFlowFramesCannotInvert(t *testing.T) {
	const n = 4
	s := NewFrameStage(n)
	// Frame 0 starts at port 3, frame 1 at port 0. For output 0, port 0
	// is swept before port 3 in each round, so without the FlowSeq gate
	// frame 1 would start first.
	insertFrame(s, n, 0, 0, 10, 0, 3, 0, 0)
	insertFrame(s, n, 0, 0, 11, 1, 0, 4, uint64(n))
	got := drain(s, n, 8, 6*n)
	if len(got) != 2*n {
		t.Fatalf("delivered %d of %d", len(got), 2*n)
	}
	for u, d := range got {
		if d.Packet.Seq != uint64(u) {
			t.Fatalf("delivery %d has seq %d: frames inverted", u, d.Packet.Seq)
		}
	}
}

// TestCompetingFlowsEachStayOrdered: many flows inserting frames with
// random relative phases; every flow's deliveries must be in sequence
// order.
func TestCompetingFlowsEachStayOrdered(t *testing.T) {
	const n = 8
	s := NewFrameStage(n)
	rng := rand.New(rand.NewSource(3))
	type flow struct {
		in, out int
		nextSeq uint64
		flowSeq uint64
	}
	flows := []*flow{{in: 0, out: 2}, {in: 1, out: 2}, {in: 2, out: 2}, {in: 3, out: 5}}
	var frameID uint64
	tt := sim.Slot(0)
	var delivered []sim.Delivery
	for round := 0; round < 200; round++ {
		// Each input spreads at most one frame concurrently; stagger
		// them randomly like real inputs would.
		f := flows[rng.Intn(len(flows))]
		start := rng.Intn(n)
		for u := 0; u < n; u++ {
			s.Step(tt, func(d sim.Delivery) { delivered = append(delivered, d) })
			s.Enqueue((start+u)%n, Cell{
				Pkt:     sim.Packet{In: int32(f.in), Out: int32(f.out), Seq: f.nextSeq, Arrival: tt},
				FrameID: frameID,
				FlowSeq: f.flowSeq,
				Index:   int32(u),
			})
			f.nextSeq++
			tt++
		}
		frameID++
		f.flowSeq++
	}
	for k := 0; k < 40*n; k++ {
		s.Step(tt, func(d sim.Delivery) { delivered = append(delivered, d) })
		tt++
	}
	if s.Backlog() != 0 {
		t.Fatalf("backlog %d after long drain", s.Backlog())
	}
	next := map[[2]int]uint64{}
	for _, d := range delivered {
		k := [2]int{int(d.Packet.In), int(d.Packet.Out)}
		if d.Packet.Seq != next[k] {
			t.Fatalf("flow %v delivered seq %d, want %d", k, d.Packet.Seq, next[k])
		}
		next[k]++
	}
}

func TestFakesConsumedSilently(t *testing.T) {
	const n = 4
	s := NewFrameStage(n)
	for u := 0; u < n; u++ {
		fake := u >= 2
		s.Enqueue(u, Cell{
			Pkt:     sim.Packet{In: 0, Out: 1, Seq: uint64(u), Fake: fake},
			FrameID: 1, FlowSeq: 0, Index: int32(u),
		})
	}
	if s.Backlog() != 2 {
		t.Fatalf("backlog %d, want 2 (fakes excluded)", s.Backlog())
	}
	got := drain(s, n, 1, 4*n)
	if len(got) != 2 {
		t.Fatalf("delivered %d real cells, want 2", len(got))
	}
	for _, d := range got {
		if d.Packet.Fake {
			t.Fatal("fake delivered")
		}
	}
}

func TestFrameStageQueueLen(t *testing.T) {
	s := NewFrameStage(4)
	s.Enqueue(2, Cell{Pkt: sim.Packet{Out: 3}, FrameID: 1, Index: 0})
	if s.QueueLen(2, 3) != 1 || s.QueueLen(2, 0) != 0 {
		t.Fatal("QueueLen wrong")
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestMissingPacketPanics: a frame that started must find its next packet
// at the next port; a frame spread short of its N cells is a bug in
// the input side and must not be served silently out of burst.
func TestMissingPacketPanics(t *testing.T) {
	const n = 4
	s := NewFrameStage(n)
	// Output 1's sweep is at port 1 in slot 0; only the first cell exists.
	s.Enqueue(1, Cell{Pkt: sim.Packet{Out: 1}, FrameID: 7, Index: 0})
	if got := drain(s, n, 0, 1); len(got) != 1 {
		t.Fatalf("first cell not served: %d deliveries", len(got))
	}
	mustPanic(t, "missing packet of frame 7", func() { s.Step(1, nil) })
}

// TestLostLockstepPanics: the stage must be stepped every slot while a
// frame is in service, or the output's sweep leaves the frame's row.
func TestLostLockstepPanics(t *testing.T) {
	const n = 4
	s := NewFrameStage(n)
	insertFrame(s, n, 0, 1, 7, 0, 1, 0, 0)
	s.Step(0, nil)
	mustPanic(t, "lost lockstep", func() { s.Step(2, nil) })
}
