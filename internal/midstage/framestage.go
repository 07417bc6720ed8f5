package midstage

import (
	"fmt"

	"sprinklers/internal/sim"
)

// The frame-atomic center stage of the full-frame switches (UFS and Padded
// Frames).
//
// A full frame's N cells are inserted at the N intermediate ports over N
// consecutive slots, so the per-output queue depths seen by one frame's
// cells can differ by one around the wrap point of competing insertion
// waves. Plain FIFO service at the second fabric would then let a one-round
// depth difference swap the departure order of adjacent packets of a frame.
// The stage removes that hazard the same way the Sprinklers virtual grid of
// Sec. 3.4.3 does for stripes: an output serves frames atomically. A frame
// may begin departing only when the output's cyclic sweep reaches the
// intermediate port holding the frame's first cell, and it then drains from
// consecutive ports in consecutive slots, so the frame arrives at the output
// "in one burst" and per-flow order is preserved. Frames of the same flow
// are additionally gated by their per-flow sequence number, so that a later
// frame can never begin before an earlier one, even when the two were spread
// starting at different ports.
//
// # Storage
//
// A frame crosses the stage as one block: a frame descriptor, queued at the
// (port, output) pair that holds its first cell, in the order first cells
// arrived there. That is the whole of what the output's start decision
// reads, and it is all the stage stores. Where the frame's other cells are
// follows from the clock: the cell at position k of a frame started in slot
// t0 at port m reaches port m+k (mod N) in slot t0+k, and an output begins
// the frame in a slot ts > t0 (outputs step before inputs), so it takes the
// cell from that port in slot ts+k, after it arrived. Their packets never
// leave the VOQ (see flowVOQ).

// frame is a frame's descriptor at the center stage.
type frame struct {
	seq  uint32 // the frame's place among its flow's frames
	in   int32  // the flow's input; its output is the queue's
	real int32  // cells [0, real) carry packets, the rest are padding
}

// outputState is an output's frame service: the frame it is draining, if
// any.
type outputState struct {
	in   int32 // input of the frame in service
	left int32 // cells of the frame still to depart; 0 when idle
	real int32 // packets among them: the first real of the left cells
	row  int32 // intermediate port the next cell departs from
}

// depart executes one second-fabric slot for every output. Real cells are
// handed to deliver; padding vanishes.
func (sp *Spreader) depart(t sim.Slot, deliver sim.DeliverFunc) {
	for j := range sp.outs {
		o := &sp.outs[j]
		m := sim.IntermediateFor(j, t, sp.n)
		if o.left == 0 {
			// Begin the first frame (in arrival order at this port) whose
			// flow allows it to begin.
			f, ok := sp.heads.RemoveFirst(m*sp.n+j, func(f *frame) bool {
				return sp.flows[int(f.in)*sp.n+j].begun == f.seq
			})
			if !ok {
				continue
			}
			sp.flows[int(f.in)*sp.n+j].begun++
			*o = outputState{in: f.in, left: int32(sp.n), real: f.real, row: int32(m)}
		} else if int(o.row) != m {
			panic(fmt.Sprintf("midstage: output %d lost lockstep: want row %d, sweep at %d", j, o.row, m))
		}
		o.left--
		o.row = int32((m + 1) % sp.n)
		if o.real == 0 {
			continue
		}
		o.real--
		i := int(o.in)
		r, seq := sp.flows[i*sp.n+j].q.Pop(&sp.inputs[i].chunks)
		sp.buffered--
		if deliver != nil {
			deliver(sim.Delivery{Packet: r.Packet(seq, i, j), Depart: t})
		}
	}
}
