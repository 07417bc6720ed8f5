package midstage

import (
	"math/rand"
	"strings"
	"testing"

	"sprinklers/internal/sim"
)

// insertFrame buffers real packets of flow (in, out), numbered from seqBase,
// and starts them as one frame (padded to N) in the first slot at or after
// from in which input in is connected to intermediate port port, so that
// the frame's first cell is queued there. It returns that slot. It drives
// the center stage directly: the input's one-frame-at-a-time pacing is not
// enforced.
func insertFrame(sp *Spreader, in, out, real, port int, from sim.Slot, seqBase uint64) sim.Slot {
	for u := 0; u < real; u++ {
		sp.Arrive(sim.Packet{In: int32(in), Out: int32(out), Seq: seqBase + uint64(u), Arrival: from})
	}
	t0 := from
	for sim.FirstStage(in, t0, sp.n) != port {
		t0++
	}
	sp.start(in, out, t0)
	return t0
}

// drain runs the second fabric alone for the given number of slots.
func drain(sp *Spreader, from sim.Slot, slots int) []sim.Delivery {
	var out []sim.Delivery
	for tt := from; tt < from+sim.Slot(slots); tt++ {
		sp.depart(tt, func(d sim.Delivery) { out = append(out, d) })
	}
	return out
}

func TestSingleFrameDeliveredInOrderAndBurst(t *testing.T) {
	const n = 8
	sp := NewSpreader(n)
	t0 := insertFrame(sp, 0, 3, n, 5, 0, 0)
	got := drain(sp, t0+1, 5*n)
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
	if sp.Backlog() != 0 {
		t.Fatalf("backlog %d", sp.Backlog())
	}
}

// TestSameFlowFramesCannotInvert: a later frame of the same flow whose
// start port would be swept first must still wait for the earlier frame.
func TestSameFlowFramesCannotInvert(t *testing.T) {
	const n = 4
	sp := NewSpreader(n)
	// Frame 0 starts at port 3, frame 1 at port 0. For output 0, port 0
	// is swept in slot 8, before port 3 in slot 11, so without the
	// sequence gate frame 1 would begin first.
	insertFrame(sp, 0, 0, n, 3, 0, 0)
	insertFrame(sp, 0, 0, n, 0, 4, uint64(n))
	got := drain(sp, 8, 6*n)
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
	sp := NewSpreader(n)
	rng := rand.New(rand.NewSource(3))
	type flow struct {
		in, out int
		nextSeq uint64
	}
	flows := []*flow{{in: 0, out: 2}, {in: 1, out: 2}, {in: 2, out: 2}, {in: 3, out: 5}}
	tt := sim.Slot(0)
	var delivered []sim.Delivery
	deliver := func(d sim.Delivery) { delivered = append(delivered, d) }
	for round := 0; round < 200; round++ {
		// One frame a round, started at a random slot of it and so at a
		// random port.
		f := flows[rng.Intn(len(flows))]
		at := rng.Intn(n)
		for u := 0; u < n; u++ {
			sp.depart(tt, deliver)
			if u == at {
				for k := 0; k < n; k++ {
					sp.Arrive(sim.Packet{In: int32(f.in), Out: int32(f.out), Seq: f.nextSeq, Arrival: tt})
					f.nextSeq++
				}
				sp.start(f.in, f.out, tt)
			}
			tt++
		}
	}
	for k := 0; k < 40*n; k++ {
		sp.depart(tt, deliver)
		tt++
	}
	if sp.Backlog() != 0 {
		t.Fatalf("backlog %d after long drain", sp.Backlog())
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
	sp := NewSpreader(n)
	t0 := insertFrame(sp, 0, 1, 2, 0, 0, 0)
	if sp.Backlog() != 2 || sp.PaddingInjected() != 2 {
		t.Fatalf("backlog %d, padding %d; want 2 and 2 (fakes excluded)", sp.Backlog(), sp.PaddingInjected())
	}
	got := drain(sp, t0+1, 4*n)
	if len(got) != 2 {
		t.Fatalf("delivered %d real cells, want 2", len(got))
	}
	if got[1].Depart != got[0].Depart+1 {
		t.Fatalf("real cells departed in slots %d and %d, want consecutive", got[0].Depart, got[1].Depart)
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

// TestLostLockstepPanics: the stage must be stepped every slot while a
// frame is in service, or the output's sweep leaves the frame's row.
func TestLostLockstepPanics(t *testing.T) {
	const n = 4
	sp := NewSpreader(n)
	insertFrame(sp, 0, 1, n, 1, 0, 0) // first cell at port 1 in slot 1
	if got := drain(sp, 2, 3); len(got) != 1 {
		t.Fatalf("%d deliveries by slot 4, want the frame's first", len(got))
	}
	mustPanic(t, "lost lockstep", func() { sp.depart(6, nil) })
}
