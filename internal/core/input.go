package core

import (
	"fmt"
	"math/bits"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// cell is a packet annotated with the slot its stripe was completed, which
// the delay breakdown reads. Cells are what the greedy scheduler and every
// size-1 stripe queue, at the inputs and in the center stage. A packet of a
// gated multi-packet stripe is a cell only where it leaves the switch
// (midStage.take): before that it is a 8-byte record in its VOQ's chunk and
// then in its stripe's center-stage block, and the queue position and the
// stripe know the rest. The stripe-size header of Sec. 3.4.3 is not in the
// cell: the queue a cell sits in is indexed by it, so whoever pops the cell
// knows it. That keeps a cell at 2 fields and 32 bytes, which the compiler
// passes and copies in registers.
type cell struct {
	pkt    sim.Packet
	formed sim.Slot // slot the packet's stripe was completed
}

// inputPort holds one input port's VOQs, the chunk pool their packets are
// buffered in, and the LSF stripe scheduler state.
//
// For the gated scheduler the storage is one FIFO of stripe descriptors per
// dyadic interval: 2N-1 FIFOs, the collapsed form of the N x (log2 N + 1)
// bank noted at the end of Sec. 3.4.2. A descriptor's packets stay in their
// VOQ's chunk queue until the fabric takes them. Size-1 stripes — the
// overwhelmingly common case at large N — are a single packet each, so they
// skip the descriptor and live as bare cells in a slab-backed queue bank
// keyed by interval start. For the greedy scheduler the storage is the full
// per-(row, size) packet FIFO bank with one nonempty-bitmap word per row,
// exactly the structure of Fig. 4.
type inputPort struct {
	sw       *Switch
	i        int
	voqs     []voqState       // one contiguous array, not N scattered allocations
	chunks   queue.RecordPool // backs every voqs[j].q
	buffered int              // packets at this input (ready + scheduled)

	// nextStripeID allocates stripe identities from a per-input space
	// (input i owns IDs [i<<40, (i+1)<<40)). The IDs never leave the
	// switch; the lockstep assertions only compare them for equality, so
	// the numbering scheme is trace-invisible.
	nextStripeID uint64

	// fastSingle[j] caches voqs[j].iv.Start when the VOQ is eligible for
	// the size-1 direct path (stripe size 1, not draining, empty ready
	// queue) and is -1 otherwise. The hot arrival path reads only this
	// 4-byte entry — 4N bytes per input instead of a 64-byte voqState
	// line per packet. Every mutation of the eligibility inputs goes
	// through refreshFast, and a stale -1 merely falls back to the (fully
	// equivalent) slow path.
	fastSingle []int32

	// Gated scheduler state. gatedBM[l] has bit k set iff a size-2^k
	// stripe is queued for the interval starting at port l, so the LSF
	// scan is one bit operation instead of up to log2(N)+1 FIFO probes.
	// Bit 0 tracks the singles bank, bits >= 1 the stripe FIFOs.
	stripes []queue.FIFO[stripe] // sizes >= 2, indexed by dyadic.Index
	singles *queue.Bank[cell]    // size-1 stripes, keyed by interval start
	gatedBM []uint64
	cur     stripe // the stripe in service while cur.served > 0

	// Greedy scheduler state: rows queue q=l*levels+k holds packets for
	// intermediate port l from size-2^k stripes. One slab-backed bank per
	// input, so a row access is a single index computation rather than two
	// pointer dereferences through nested slices.
	rows   *queue.Bank[cell]
	bitmap []uint64 // bit k set iff rows queue l*levels+k is nonempty
}

func newInputPort(sw *Switch, i int) *inputPort {
	in := &inputPort{
		sw:           sw,
		i:            i,
		voqs:         make([]voqState, sw.n),
		fastSingle:   make([]int32, sw.n),
		nextStripeID: uint64(i) << 40,
	}
	for j := range in.voqs {
		v := &in.voqs[j]
		v.out = int32(j)
		v.setSize(initialSize(sw.cfg, i, j), sw.PrimaryPort(i, j))
		in.refreshFast(v)
	}
	switch sw.cfg.Scheduler {
	case GatedLSF:
		in.stripes = make([]queue.FIFO[stripe], 2*sw.n-1)
		in.singles = queue.NewBank[cell](sw.n)
		in.gatedBM = make([]uint64, sw.n)
	case GreedyLSF:
		in.rows = queue.NewBank[cell](sw.n * sw.levels)
		in.bitmap = make([]uint64, sw.n)
	}
	return in
}

// refreshFast recomputes v's fastSingle entry from the ground truth. It
// must be called after any change to the VOQ's size, pending resize, or
// ready count.
func (in *inputPort) refreshFast(v *voqState) {
	if v.iv.Size == 1 && v.pending == 0 && v.ready == 0 {
		in.fastSingle[v.out] = int32(v.iv.Start)
	} else {
		in.fastSingle[v.out] = -1
	}
}

// arrive buffers p in its VOQ's queue and cuts a stripe if the ready count
// reached the VOQ's stripe size. Switch.applyArrivals calls it for each of a
// slot's arrivals at the start of Step.
func (in *inputPort) arrive(p sim.Packet) {
	in.buffered++
	if l := int(in.fastSingle[p.Out]); l >= 0 {
		// Size-1 stripes need no accumulation, so the packet becomes a
		// one-cell stripe directly, skipping the chunk queue, the stripe
		// descriptor and the voqState line itself. At large N nearly every
		// VOQ stripes at size 1, which makes this the hottest branch in the
		// simulator.
		c := cell{pkt: p, formed: in.sw.t}
		if in.sw.adaptive != nil {
			in.voqs[p.Out].committed++
		}
		if in.sw.cfg.Scheduler == GatedLSF {
			in.singles.Push(l, c)
			in.gatedBM[l] |= 1
		} else {
			in.rows.Push(l*in.sw.levels, c)
			in.bitmap[l] |= 1
		}
		return
	}
	v := &in.voqs[p.Out]
	v.q.Push(&in.chunks, p)
	v.ready++
	in.formStripes(v)
	in.refreshFast(v)
}

// formStripes cuts as many full stripes as the ready packets allow; it is
// also the whole of an adaptive resize's re-cut. Formation is suspended
// while the VOQ is in an adaptive clearance phase. Cutting moves no packet:
// the ready count drops by the stripe size and a descriptor is scheduled.
func (in *inputPort) formStripes(v *voqState) {
	size := int32(v.iv.Size)
	for v.pending == 0 && v.ready >= size {
		v.ready -= size
		if in.sw.adaptive != nil {
			v.committed += size
		}
		in.schedule(v, stripe{id: in.nextStripeID, out: v.out, iv: v.iv, formed: in.sw.t})
		in.nextStripeID++
	}
}

// schedule places a freshly cut stripe of v into the scheduler storage. Only
// a gated multi-packet stripe stays a descriptor. A greedy stripe's packets
// go to per-port rows and a single cell to the singles bank, so those are
// popped here, and they are at the head of the queue: the greedy scheduler
// leaves no cut stripe in it, and a gated VOQ only cuts singles once the
// clearance phase has seen every larger stripe out of the switch.
func (in *inputPort) schedule(v *voqState, st stripe) {
	k := dyadic.Log2(st.iv.Size)
	if in.sw.cfg.Scheduler == GreedyLSF {
		for l := st.iv.Start; l < st.iv.Start+st.iv.Size; l++ {
			in.rows.Push(l*in.sw.levels+k, in.pop(v, &st))
			in.bitmap[l] |= 1 << uint(k)
		}
		return
	}
	if k == 0 {
		in.singles.Push(st.iv.Start, in.pop(v, &st))
	} else {
		in.stripes[dyadic.Index(st.iv, in.sw.n)].Push(st)
	}
	in.gatedBM[st.iv.Start] |= 1 << uint(k)
}

// pop takes the packet at the head of v's queue and rebuilds it as the next
// cell of stripe st.
func (in *inputPort) pop(v *voqState, st *stripe) cell {
	r, seq := v.q.Pop(&in.chunks)
	return cell{
		pkt:    r.Packet(seq, in.i, int(st.out)),
		formed: st.formed,
	}
}

// transmit executes one first-fabric slot for this input port: it sends the
// packet (if any) due at the intermediate port the fabric currently connects
// the input to straight into the center stage. A gated multi-packet stripe's
// packet goes from its VOQ's chunk to its slot of the stripe's block as the
// 8-byte record it is, and no cell is built until the output takes it.
func (in *inputPort) transmit(t sim.Slot, ms *midStage) {
	l := in.sw.firstStage(in.i, t)
	if in.sw.cfg.Scheduler != GatedLSF {
		if c, k := in.serveGreedy(l); k >= 0 {
			ms.enqueue(l, k, c)
		}
		return
	}
	switch in.pick(l) {
	case sendSingle:
		ms.enqueue(l, 0, in.takeSingle(l))
	case sendStriped:
		r, seq := in.voqs[in.cur.out].q.Pop(&in.chunks)
		ms.write(in.i, &in.cur, r, seq)
		in.advance()
	}
}

// sendKind says what a gated input puts on the first fabric in one slot.
type sendKind int

const (
	sendNothing sendKind = iota
	sendSingle           // the oldest size-1 stripe queued for the connected port
	sendStriped          // packet cur.served of the stripe in service, cur
)

// pick is Algorithm 1 for the slot that connects the input to intermediate
// port l. It decides what is sent and, when that starts a stripe, makes the
// stripe cur; taking the packet is the caller's, by takeSingle or by popping
// cur's VOQ and calling advance.
func (in *inputPort) pick(l int) sendKind {
	if st := &in.cur; st.served > 0 {
		if st.iv.Start+int(st.served) != l {
			panic(fmt.Sprintf("core: input %d gated service lost lockstep: stripe %v next %d, connection %d",
				in.i, st.iv, st.served, l))
		}
		return sendStriped
	}
	// Largest Stripe First among the stripes whose dyadic interval starts
	// at the connected port (Algorithm 1): the highest set bitmap bit is
	// the largest nonempty interval size.
	bm := in.gatedBM[l]
	if bm == 0 {
		return sendNothing
	}
	k := bits.Len64(bm) - 1
	if k == 0 {
		return sendSingle
	}
	q := &in.stripes[dyadic.Index(dyadic.Interval{Start: l, Size: 1 << uint(k)}, in.sw.n)]
	in.cur = q.Pop()
	if q.Empty() {
		in.gatedBM[l] &^= 1 << uint(k)
	}
	return sendStriped
}

func (in *inputPort) takeSingle(l int) cell {
	c := in.singles.Pop(l)
	if in.singles.Empty(l) {
		in.gatedBM[l] &^= 1
	}
	in.buffered--
	return c
}

// advance accounts for one packet of cur having been sent.
func (in *inputPort) advance() {
	st := &in.cur
	if st.served++; int(st.served) == st.iv.Size {
		st.served = 0
	}
	in.buffered--
}

// serveGreedy pops the cell the greedy scheduler sends to intermediate port
// l and returns it with log2 of its stripe's size, or k = -1 when the row is
// empty.
func (in *inputPort) serveGreedy(l int) (c cell, k int) {
	bm := in.bitmap[l]
	if bm == 0 {
		return cell{}, -1
	}
	// "First one from the right" of Fig. 4: the largest stripe size with a
	// packet queued for this row.
	k = bits.Len64(bm) - 1
	q := l*in.sw.levels + k
	c = in.rows.Pop(q)
	if in.rows.Empty(q) {
		in.bitmap[l] &^= 1 << uint(k)
	}
	in.buffered--
	return c, k
}

// queuedStripes reports, for tests, the number of completed stripes waiting
// at this input for the given interval (gated scheduler only).
func (in *inputPort) queuedStripes(iv dyadic.Interval) int {
	if in.sw.cfg.Scheduler != GatedLSF {
		return 0
	}
	if iv.Size == 1 {
		return in.singles.QueueLen(iv.Start)
	}
	return in.stripes[dyadic.Index(iv, in.sw.n)].Len()
}
