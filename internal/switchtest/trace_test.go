package switchtest

import (
	"testing"

	"sprinklers/internal/sim"
)

func TestTraceSource(t *testing.T) {
	tr := NewTrace(4)
	tr.Add(5, 1, 2)
	tr.Add(5, 2, 2)
	tr.Add(9, 1, 2)
	var got []sim.Packet
	for tt := sim.Slot(0); tt < 12; tt++ {
		tr.Next(tt, func(p sim.Packet) { got = append(got, p) })
	}
	if len(got) != 3 {
		t.Fatalf("trace emitted %d packets", len(got))
	}
	if got[0].Seq != 0 || got[2].Seq != 1 || got[2].In != 1 {
		t.Fatal("trace sequencing wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double arrival")
		}
	}()
	tr.Add(5, 1, 3)
}
