package switchtest

import (
	"fmt"

	"sprinklers/internal/sim"
)

// Checker wraps a switch and validates the fabric model on every Step. It
// implements sim.Switch itself, so it drops into any harness.
type Checker struct {
	inner sim.Switch

	offered   int64
	delivered int64
	inFlight  map[flowSeq]sim.Packet // packets inside the switch, as offered
	violation string
}

func keyOf(p sim.Packet) flowSeq { return flowSeq{p.In, p.Out, p.Seq} }

// Wrap builds a Checker around sw.
func Wrap(sw sim.Switch) *Checker {
	return &Checker{inner: sw, inFlight: make(map[flowSeq]sim.Packet)}
}

// Violation returns a description of the first detected violation, or "".
func (c *Checker) Violation() string { return c.violation }

// Offered returns the number of packets offered so far.
func (c *Checker) Offered() int64 { return c.offered }

// Delivered returns the number of packets delivered so far.
func (c *Checker) Delivered() int64 { return c.delivered }

func (c *Checker) fail(format string, args ...any) {
	if c.violation == "" {
		c.violation = fmt.Sprintf(format, args...)
	}
}

// N implements sim.Switch.
func (c *Checker) N() int { return c.inner.N() }

// Now implements sim.Switch.
func (c *Checker) Now() sim.Slot { return c.inner.Now() }

// Backlog implements sim.Switch.
func (c *Checker) Backlog() int { return c.inner.Backlog() }

// Arrive implements sim.Switch.
func (c *Checker) Arrive(p sim.Packet) {
	k := keyOf(p)
	if _, dup := c.inFlight[k]; dup {
		c.fail("packet %+v offered twice", k)
	}
	c.inFlight[k] = p
	c.offered++
	if p.Arrival != c.inner.Now() {
		c.fail("packet %+v arrives stamped %d at slot %d", k, p.Arrival, c.inner.Now())
	}
	c.inner.Arrive(p)
}

// Step implements sim.Switch, validating every delivery of the slot.
func (c *Checker) Step(deliver sim.DeliverFunc) {
	now := c.inner.Now()
	n := c.inner.N()
	outputsUsed := make(map[int]bool, 4)
	count := 0
	c.inner.Step(func(d sim.Delivery) {
		count++
		if count > n {
			c.fail("slot %d: %d departures exceed N=%d", now, count, n)
		}
		if d.Depart != now {
			c.fail("slot %d: departure stamped %d", now, d.Depart)
		}
		if outputsUsed[int(d.Packet.Out)] {
			c.fail("slot %d: output %d used twice", now, d.Packet.Out)
		}
		outputsUsed[int(d.Packet.Out)] = true
		got := d.Packet
		got.StripeSize = 0
		k := keyOf(got)
		if want, ok := c.inFlight[k]; !ok {
			c.fail("slot %d: packet %+v delivered but never offered (or twice)", now, k)
		} else if got != want {
			c.fail("slot %d: delivered %+v, offered as %+v", now, got, want)
		}
		delete(c.inFlight, k)
		c.delivered++
		if deliver != nil {
			deliver(d)
		}
	})
	// The switch's own backlog accounting must match ours. Switches that
	// hold packets in resequencers count them as backlog, so the check
	// is for equality against offered-delivered.
	if got, want := int64(c.inner.Backlog()), c.offered-c.delivered; got != want {
		c.fail("slot %d: backlog %d, offered-delivered %d", now, got, want)
	}
}
