package core

import (
	"sprinklers/internal/dyadic"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// stripe describes a group of f consecutive packets from one VOQ, where f
// is the VOQ's stripe size when the group was cut. The u-th packet of the
// stripe traverses intermediate port iv.Start+u, so a stripe crosses each
// fabric "in one burst" of consecutive slots. A stripe owns no packets: a
// VOQ's stripes are served in the order they were cut, so its packets are
// always the next iv.Size records at the head of the VOQ's queue.
type stripe struct {
	id     uint64
	iv     dyadic.Interval
	formed sim.Slot // slot the stripe was completed at the input
	out    int32    // destination output port; with the input it names the VOQ
	served int32    // packets the first fabric has taken; 0 unless in service
}

// voqState is the per-VOQ routing state at an input port. It is 64 bytes,
// one cache line: the counters and the port are int32, the stripe size is
// iv.Size, and the OLS-assigned primary port, needed only when the size
// changes, is asked of the switch then (Switch.PrimaryPort).
type voqState struct {
	iv dyadic.Interval

	// q holds every packet of the VOQ still at the input, oldest first: the
	// packets of stripes already cut and awaiting service (gated scheduler
	// only; the greedy one copies them out as it cuts), then the ready
	// packets accumulating toward the next stripe. A record keeps what
	// differs between them; In and Out are rebuilt from the VOQ on service
	// (inputPort.pop), and Seq from the queue position.
	q     queue.RecordFIFO
	out   int32 // the VOQ's output port
	ready int32

	// committed counts this VOQ's packets inside the switch beyond the
	// ready packets (in cut stripes at the input or in the center stage).
	// The adaptive clearance phase of Sec. 5 waits for it to reach zero
	// before changing the stripe size.
	committed int32
	// pending is the stripe size a resize waiting for clearance will adopt,
	// and 0 when none is: while it is set, stripe formation is suspended so
	// no packets of the old size remain when the new size takes effect.
	pending int32
}

// initialSize returns the stripe size a VOQ starts with under cfg.
func initialSize(cfg Config, i, j int) int {
	if cfg.Rates != nil {
		return dyadic.StripeSize(cfg.Rates[i][j], cfg.N)
	}
	if cfg.DefaultStripeSize != 0 {
		return cfg.DefaultStripeSize
	}
	return 1
}

// setSize installs a stripe size and the corresponding dyadic interval
// around the VOQ's primary intermediate port (Sec. 3.3.1: the unique dyadic
// interval of size f containing the primary port).
func (v *voqState) setSize(f, primary int) {
	v.iv = dyadic.Containing(primary, f)
}
