package midstage

import (
	"testing"

	"sprinklers/internal/sim"
)

func TestFIFOPerOutputService(t *testing.T) {
	const n = 4
	s := New(n)
	// Two packets for output 1 at intermediate 0; they depart in FIFO
	// order on consecutive visits of the second fabric.
	s.Enqueue(0, sim.Packet{Out: 1, Seq: 0})
	s.Enqueue(0, sim.Packet{Out: 1, Seq: 1})
	if s.Backlog() != 2 {
		t.Fatalf("Backlog = %d", s.Backlog())
	}
	var got []sim.Delivery
	for tt := sim.Slot(0); tt < 3*n; tt++ {
		s.Step(tt, func(d sim.Delivery) { got = append(got, d) })
	}
	if len(got) != 2 {
		t.Fatalf("delivered %d", len(got))
	}
	if got[0].Packet.Seq != 0 || got[1].Packet.Seq != 1 {
		t.Fatal("FIFO order violated")
	}
	// Intermediate 0 serves output 1 when (0 - t) mod 4 == 1, i.e. t = 3
	// mod 4: exactly one service per round.
	if got[1].Depart-got[0].Depart != sim.Slot(n) {
		t.Fatalf("services %d slots apart, want %d", got[1].Depart-got[0].Depart, n)
	}
}

func TestQueueLen(t *testing.T) {
	s := New(4)
	s.Enqueue(1, sim.Packet{Out: 2})
	s.Enqueue(1, sim.Packet{Out: 2, Seq: 1})
	if got := s.q.QueueLen(1*4 + 2); got != 2 {
		t.Fatalf("QueueLen = %d, want 2", got)
	}
}

func TestStepReturnsRemovedCount(t *testing.T) {
	const n = 2
	s := New(n)
	s.Enqueue(0, sim.Packet{Out: 0})
	s.Enqueue(1, sim.Packet{Out: 1})
	// At t=0: intermediate 0 -> output 0, intermediate 1 -> output 1.
	if got := s.Step(0, nil); got != 2 {
		t.Fatalf("removed %d, want 2", got)
	}
}

// TestTakeRebuildsPacket: a queued packet is a record of Seq, Arrival and
// In; Take gives it back whole, Out from the queue's index, and only from
// that queue.
func TestTakeRebuildsPacket(t *testing.T) {
	s := New(4)
	p := sim.Packet{Seq: 7, Arrival: 41, In: 3, Out: 2}
	s.Enqueue(1, p)
	if _, ok := s.Take(1, 3); ok {
		t.Fatal("Take returned a packet from another output's queue")
	}
	if _, ok := s.Take(2, 2); ok {
		t.Fatal("Take returned a packet from another port's queue")
	}
	got, ok := s.Take(1, 2)
	if !ok || got != p {
		t.Fatalf("Take = %+v, %v; want %+v", got, ok, p)
	}
	if _, ok := s.Take(1, 2); ok || s.Backlog() != 0 {
		t.Fatalf("stage still holds %d packets after its one was taken", s.Backlog())
	}
}
