package switchtest

import (
	"testing"

	"sprinklers/internal/sim"
)

// okSwitch is a minimal conforming switch: everything arrives at one input
// and departs one slot later through its output.
type okSwitch struct {
	n       int
	t       sim.Slot
	pending []sim.Packet
}

func (s *okSwitch) N() int        { return s.n }
func (s *okSwitch) Now() sim.Slot { return s.t }
func (s *okSwitch) Backlog() int  { return len(s.pending) }
func (s *okSwitch) Arrive(p sim.Packet) {
	s.pending = append(s.pending, p)
}
func (s *okSwitch) Step(deliver sim.DeliverFunc) {
	used := map[int]bool{}
	var rest []sim.Packet
	for _, p := range s.pending {
		if !used[int(p.Out)] && p.Arrival < s.t {
			used[int(p.Out)] = true
			if deliver != nil {
				deliver(sim.Delivery{Packet: p, Depart: s.t})
			}
		} else {
			rest = append(rest, p)
		}
	}
	s.pending = rest
	s.t++
}

func feed(c *Checker, n int) {
	for k := 0; k < n; k++ {
		c.Arrive(sim.Packet{In: 0, Out: int32(k % c.N()), Seq: uint64(k / c.N()), Arrival: c.Now()})
		c.Step(nil)
	}
	for k := 0; k < 2*c.N(); k++ {
		c.Step(nil)
	}
}

func TestCleanSwitchPasses(t *testing.T) {
	c := Wrap(&okSwitch{n: 4})
	feed(c, 10)
	if v := c.Violation(); v != "" {
		t.Fatalf("clean switch flagged: %s", v)
	}
	if c.Offered() != 10 || c.Delivered() != 10 {
		t.Fatalf("accounting: offered %d delivered %d", c.Offered(), c.Delivered())
	}
}

// cheat wraps okSwitch and injects a specific violation.
type cheat struct {
	*okSwitch
	mode string
}

func (s *cheat) Step(deliver sim.DeliverFunc) {
	switch s.mode {
	case "duplicate-output":
		t := s.t
		if len(s.pending) > 0 {
			p := s.pending[0]
			deliver(sim.Delivery{Packet: p, Depart: t})
			deliver(sim.Delivery{Packet: p, Depart: t})
			s.pending = s.pending[1:]
		}
		s.t++
	case "wrong-slot":
		if len(s.pending) > 0 {
			p := s.pending[0]
			s.pending = s.pending[1:]
			deliver(sim.Delivery{Packet: p, Depart: s.t + 5})
		}
		s.t++
	case "phantom":
		deliver(sim.Delivery{Packet: sim.Packet{Out: 1, Seq: 999}, Depart: s.t})
		s.t++
	case "wrong-input", "wrong-seq":
		// A switch that rebuilds packets from less than it was given.
		if len(s.pending) > 0 {
			p := s.pending[0]
			s.pending = s.pending[1:]
			if s.mode == "wrong-input" {
				p.In++
			} else {
				p.Seq++
			}
			deliver(sim.Delivery{Packet: p, Depart: s.t})
		}
		s.t++
	default:
		s.okSwitch.Step(deliver)
	}
}

func TestViolationsDetected(t *testing.T) {
	for _, mode := range []string{"duplicate-output", "wrong-slot", "phantom", "wrong-input", "wrong-seq"} {
		c := Wrap(&cheat{okSwitch: &okSwitch{n: 4}, mode: mode})
		c.Arrive(sim.Packet{In: 0, Out: 0, Arrival: 0})
		for k := 0; k < 4; k++ {
			c.Step(nil)
		}
		if c.Violation() == "" {
			t.Errorf("mode %q not detected", mode)
		}
	}
}

func TestDoubleOfferDetected(t *testing.T) {
	c := Wrap(&okSwitch{n: 4})
	c.Arrive(sim.Packet{Out: 0, Seq: 7, Arrival: 0})
	c.Arrive(sim.Packet{Out: 0, Seq: 7, Arrival: 0})
	if c.Violation() == "" {
		t.Fatal("double offer not detected")
	}
}

// TestCheckerRejectsDuplicateFlowSeq: (In, Out, Seq) names a packet, so
// packets that differ in any one of the three may be in flight together,
// and a second in-flight packet that shares all three fails the run, even
// when it differs in everything else (a Checker keyed on less than the
// triple fails one half or the other).
func TestCheckerRejectsDuplicateFlowSeq(t *testing.T) {
	c := Wrap(&okSwitch{n: 4})
	for _, p := range []sim.Packet{
		{In: 1, Out: 2, Seq: 3},
		{In: 0, Out: 2, Seq: 3},
		{In: 1, Out: 0, Seq: 3},
		{In: 1, Out: 2, Seq: 4},
	} {
		c.Arrive(p)
	}
	if v := c.Violation(); v != "" {
		t.Fatalf("distinct packets flagged: %s", v)
	}
	c.Step(nil)
	c.Arrive(sim.Packet{In: 1, Out: 2, Seq: 3, Arrival: 1})
	if c.Violation() == "" {
		t.Fatal("a second in-flight packet (1, 2, 3) was not detected")
	}
}

func TestArrivalStampChecked(t *testing.T) {
	c := Wrap(&okSwitch{n: 4})
	c.Arrive(sim.Packet{Out: 0, Arrival: 5}) // switch is at slot 0
	if c.Violation() == "" {
		t.Fatal("bad arrival stamp not detected")
	}
}
