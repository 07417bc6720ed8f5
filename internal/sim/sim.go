// Package sim provides the slot-synchronous simulation substrate shared by
// every switch implementation in this repository.
//
// A load-balanced switch is a synchronous time-division system: in every time
// slot each of the two switching fabrics realizes one deterministic
// permutation between its ports. The engine therefore advances a single
// global clock one slot at a time; there is no event heap because nothing in
// the system is asynchronous.
//
// The package defines the Packet cell model, the Switch interface implemented
// by every architecture (Sprinklers, baseline load-balanced, UFS, FOFF, PF,
// TCP hashing), the two fabric connection patterns, and the Runner that wires
// a traffic source, a switch and an observer together.
package sim

// Slot is a discrete time-slot index. Slot 0 is the first slot of a
// simulation. All ports operate at speed 1: one packet per slot.
type Slot int64

// Packet is a fixed-size cell transiting the switch. Packets are plain
// values; switches may copy them freely. (In, Out, Seq) identifies a
// packet: no two packets of a run share all three. The struct is packed
// into 32 bytes — ports and the stripe header are int32, which comfortably
// covers any switch size — so a 64-byte cache line holds two packets, or
// one beside the annotations a queue bank keeps with it.
type Packet struct {
	// Seq is the per-(In,Out) flow sequence number: a source numbers each
	// flow 0, 1, 2 … with no gap and no repeat. The reordering detectors
	// and resequencers key on it, and a switch that buffers a VOQ's
	// packets as queue records derives it from the queue position, so a
	// packet whose Seq does not follow the last one its VOQ holds makes
	// the switch panic.
	Seq uint64
	// Arrival is the slot in which the packet arrived at its input port.
	Arrival Slot
	// In is the 0-based input port at which the packet arrived.
	In int32
	// Out is the 0-based output port the packet is destined to.
	Out int32
	// StripeSize is the Sprinklers stripe-size header of Sec. 3.4.3 (the
	// log2 log2 N-bit field carried across the first fabric). Zero for
	// architectures that do not use striping.
	StripeSize int32
}

// Delivery records a packet leaving the switch through its output port.
type Delivery struct {
	Packet Packet
	// Depart is the slot in which the packet crossed the output port.
	Depart Slot
}

// Delay returns the packet's total sojourn time in slots.
func (d Delivery) Delay() Slot { return d.Depart - d.Packet.Arrival }

// DeliverFunc consumes packets as they leave the switch. Implementations
// must not retain the Packet beyond the call unless they copy it (Packet is
// a value type, so plain assignment copies).
type DeliverFunc func(Delivery)

// Switch is a slot-synchronous two-stage load-balanced switch.
//
// The protocol per slot t is:
//  1. the runner calls Arrive for every packet arriving in slot t
//     (at most one per input port for Bernoulli sources);
//  2. the runner calls Step once, during which the switch executes both
//     fabric permutations for slot t and reports departures via deliver.
//
// Implementations are single-goroutine and deterministic given their seed.
type Switch interface {
	// N returns the port count of the switch.
	N() int
	// Now returns the slot the next Step call will execute.
	Now() Slot
	// Arrive offers a packet to input port p.In during the current slot.
	// The packet's Arrival field must equal Now(). A switch may hold the
	// packets passed to Arrive and apply them at the start of the next Step.
	Arrive(p Packet)
	// Step executes one time slot and invokes deliver once per packet
	// that departs an output port during the slot. deliver may be nil.
	Step(deliver DeliverFunc)
	// Backlog reports the number of packets currently buffered anywhere
	// inside the switch, those passed to Arrive and not yet applied by Step
	// included. Used by conservation tests.
	Backlog() int
}

// FirstStage returns the intermediate port that input port i is connected to
// during slot t by the first switching fabric. The fabric executes the
// periodic "increasing" sequence of Sec. 3.4: in 1-based paper notation,
// l = ((i + t) mod N) + 1.
func FirstStage(i int, t Slot, n int) int {
	m := (Slot(i) + t) % Slot(n)
	if m < 0 {
		m += Slot(n)
	}
	return int(m)
}

// SecondStage returns the output port that intermediate port l is connected
// to during slot t by the second switching fabric (the periodic "decreasing"
// sequence: j = ((l - t) mod N) + 1 in 1-based notation).
func SecondStage(l int, t Slot, n int) int {
	m := (Slot(l) - t) % Slot(n)
	if m < 0 {
		m += Slot(n)
	}
	return int(m)
}

// IntermediateFor inverts SecondStage: the intermediate port connected to
// output port j during slot t. It increases by one (mod N) every slot, so an
// output port sweeps the intermediate ports cyclically.
func IntermediateFor(j int, t Slot, n int) int {
	m := (Slot(j) + t) % Slot(n)
	if m < 0 {
		m += Slot(n)
	}
	return int(m)
}
