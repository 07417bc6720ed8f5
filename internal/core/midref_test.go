package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/sim"
	"sprinklers/internal/traffic"
)

// refMidStage is the gated center stage written the way Sec. 3.4.3 reads:
// every intermediate port keeps one FIFO per (output, stripe size), the
// output's grid finds the largest stripe that may start at the connected row
// by trying the sizes one after the other, and a started stripe is taken
// from the same FIFO of the next row in the next slot. Plain slices, no
// Bank, no bitmap, no blocks: it is the stage midStage was before a stripe
// became a block, and shares nothing with it but the cell type.
type refMidStage struct {
	n, levels int
	q         [][][][]cell // q[m][j][k]: port m, output j, stripes of 2^k
	grids     []refGrid
	buffered  int
	stripes   int // multi-packet stripes with a packet still to leave
	// overlaps counts the multi-packet stripes that entered the stage while
	// another stripe for the same (output, interval) was still in it: the
	// case a per-interval queue of blocks has to keep in order.
	overlaps int
}

type refGrid struct {
	serving bool
	iv      dyadic.Interval
	next    int
	id      uint64
}

func newRefMidStage(n int) *refMidStage {
	r := &refMidStage{n: n, levels: dyadic.Levels(n), grids: make([]refGrid, n)}
	r.q = make([][][][]cell, n)
	for m := range r.q {
		r.q[m] = make([][][]cell, n)
		for j := range r.q[m] {
			r.q[m][j] = make([][]cell, r.levels)
		}
	}
	return r
}

func (r *refMidStage) enqueue(l int, c cell) {
	j, size := int(c.pkt.Out), int(c.pkt.StripeSize)
	k := dyadic.Log2(size)
	if size > 1 && l%size == 0 {
		g := r.grids[j]
		if len(r.q[l][j][k]) > 0 || g.serving && g.iv == (dyadic.Interval{Start: l, Size: size}) {
			r.overlaps++
		}
		r.stripes++
	}
	r.q[l][j][k] = append(r.q[l][j][k], c)
	r.buffered++
}

func (r *refMidStage) take(m, j, k int) cell {
	c := r.q[m][j][k][0] // panics when the row has not received the packet
	r.q[m][j][k] = r.q[m][j][k][1:]
	r.buffered--
	return c
}

// pop is one slot of output j's grid, connected to row m.
func (r *refMidStage) pop(j, m int) (cell, bool) {
	g := &r.grids[j]
	if g.serving {
		if g.iv.Start+g.next != m {
			panic(fmt.Sprintf("reference: output %d lost lockstep at row %d", j, m))
		}
		c := r.take(m, j, dyadic.Log2(g.iv.Size))
		if c.stripeID != g.id {
			panic(fmt.Sprintf("reference: output %d took stripe %d while serving %d", j, c.stripeID, g.id))
		}
		if g.next++; g.next == g.iv.Size {
			g.serving = false
			r.stripes--
		}
		return c, true
	}
	for k := r.levels - 1; k >= 0; k-- {
		size := 1 << uint(k)
		if m%size != 0 || len(r.q[m][j][k]) == 0 {
			continue
		}
		c := r.take(m, j, k)
		if size > 1 {
			*g = refGrid{serving: true, iv: dyadic.Interval{Start: m, Size: size}, next: 1, id: c.stripeID}
		}
		return c, true
	}
	return cell{}, false
}

func (r *refMidStage) queueLen(m, j int) int {
	total := 0
	for _, q := range r.q[m][j] {
		total += len(q)
	}
	return total
}

// refStep is Switch.Step's body with the center stage swapped for the
// reference: sw keeps its input ports, its delay accounting and its adaptive
// state, and its own midStage stays empty. The inputs hand the reference
// every packet as a cell (refServe), not through transmit, so the reference
// shares no input path with midStage.
func refStep(sw *Switch, ref *refMidStage, deliver sim.DeliverFunc) {
	t := sw.t
	for j := 0; j < sw.n; j++ {
		if c, ok := ref.pop(j, sw.intermediateFor(j, t)); ok {
			sw.emit(c, t, deliver)
		}
	}
	for i := 0; i < sw.n; i++ {
		l := sw.firstStage(i, t)
		if c, ok := refServe(sw.inputs[i], l); ok {
			ref.enqueue(l, c)
		}
	}
	if sw.adaptive != nil {
		sw.adaptive.onSlotEnd(t)
	}
	sw.t++
}

// refServe is one gated first-fabric slot of input in, connected to port l:
// what pick chose, as the cell the reference stage queues.
func refServe(in *inputPort, l int) (cell, bool) {
	switch in.pick(l) {
	case sendSingle:
		return in.takeSingle(l), true
	case sendStriped:
		c := in.pop(&in.voqs[in.cur.out], &in.cur)
		in.advance()
		return c, true
	}
	return cell{}, false
}

// centerStageCase is one workload of TestCenterStageMatchesReference.
type centerStageCase struct {
	name     string
	n        int
	rates    *traffic.Matrix // what Eq. 1 sizes the VOQs for
	adaptive *AdaptiveConfig
	source   func(rng *rand.Rand) sim.Source
	slots    int
}

// TestCenterStageMatchesReference runs the switch and a twin whose center
// stage is refMidStage on one arrival sequence, slot by slot, and demands
// the same deliveries in the same order every slot — every field of the
// packet, so (ID, Seq, In, Out, StripeSize) and the departure slot — the
// same DelayBreakdown, the same backlog and, at intervals, the same number
// of cells at every (port, output) as midStage.queueLen counts them in its
// bank, its queued blocks and the block in service. Under Eq. 1 the Zipf and
// diagonal matrices put stripes of every size from 1 to N on one output.
// The flip timeline resizes VOQs both ways while packets wait, so blocks of
// a size no VOQ forms any more stay parked while another size fills. Each
// case must see two stripes of one (output, interval) in the stage at once,
// or the per-interval order was never exercised.
//
// Four one-line faults were put into mid.go by hand; each fails this test:
//
//   - write stores slot u+1 instead of u: index out of range at the last
//     packet of the first stripe (its block ends the slab), and with the
//     index wrapped inside the block the first delivery of a stripe differs
//     (uniform/N-2, slot 3: packet 0 where the reference has packet 2);
//   - the grid releases the block when next == size-1, one pop early:
//     "grid reached packet 3 of stripe 0 with 0 arrived" at N = 4; a stripe
//     of two never meets the condition and leaks instead, which the count
//     of held blocks catches at N = 2 (and TestStripeBlocksModel's
//     accounting, in its first trial);
//   - write queues the descriptor on the stripe's last packet instead of
//     its first: nothing departs in the first slot a stripe could have
//     started (uniform/N-2, slot 3: 0 deliveries, reference 1);
//   - two inputs share one sending handle (sending[in>>1]): "input 1 sent
//     packet 1 of stripe … into the block of stripe …" as soon as both are
//     mid-stripe.
func TestCenterStageMatchesReference(t *testing.T) {
	bernoulli := func(m *traffic.Matrix) func(*rand.Rand) sim.Source {
		return func(rng *rand.Rand) sim.Source { return traffic.NewBernoulli(m, rng) }
	}
	var cases []centerStageCase
	for _, n := range []int{2, 4, 8, 32, 64} {
		slots := max(4000, 4*n*n)
		for _, m := range []struct {
			name string
			m    *traffic.Matrix
		}{
			{"uniform", traffic.Uniform(n, 0.9)},
			{"diagonal", traffic.Diagonal(n, 0.85)},
			{"zipf", traffic.Zipf(n, 0.85, 1.2)},
		} {
			cases = append(cases, centerStageCase{
				name: fmt.Sprintf("%s/N-%d", m.name, n), n: n, rates: m.m, source: bernoulli(m.m), slots: slots,
			})
		}
	}
	{
		const n, phase = 32, 6000
		zipf, diag := traffic.Zipf(n, 0.85, 1.2), traffic.Diagonal(n, 0.9)
		cases = append(cases, centerStageCase{
			name: "flip/N-32", n: n, rates: zipf, slots: 4 * phase,
			adaptive: &AdaptiveConfig{Window: 500, Gamma: 0.5, HoldWindows: 2},
			source: func(rng *rand.Rand) sim.Source {
				return traffic.NewPhased(n, rng).AddPhase(zipf, phase).AddPhase(diag, phase).
					AddPhase(zipf, phase).AddPhase(diag, phase)
			},
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runAgainstReference(t, tc) })
	}
}

// liveBlocks counts the blocks that are on no free list.
func liveBlocks(ms *midStage) int {
	p := &ms.blocks
	live := len(p.hdr)
	for _, b := range p.free {
		for ; b >= 0; b = p.hdr[b].next {
			live--
		}
	}
	return live
}

func runAgainstReference(t *testing.T, tc centerStageCase) {
	build := func() *Switch {
		return MustNew(Config{N: tc.n, Rates: rowsOf(tc.rates), Adaptive: tc.adaptive,
			Rand: rand.New(rand.NewSource(301))})
	}
	sw, twin := build(), build()
	ref := newRefMidStage(tc.n)
	src := tc.source(rand.New(rand.NewSource(302)))

	var got, want []delivery
	arrive := func(p packet) { sw.Arrive(p); twin.Arrive(p) }
	for slot := 0; slot < tc.slots; slot++ {
		src.Next(sw.Now(), arrive)
		got, want = got[:0], want[:0]
		sw.Step(func(d delivery) { got = append(got, d) })
		refStep(twin, ref, func(d delivery) { want = append(want, d) })
		if len(got) != len(want) {
			t.Fatalf("slot %d: %d deliveries, reference %d", slot, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("slot %d delivery %d: %+v, reference %+v", slot, i, got[i], want[i])
			}
		}
		if slot%61 != 0 && slot != tc.slots-1 {
			continue
		}
		if sw.mid.buffered != ref.buffered {
			t.Fatalf("slot %d: center stage holds %d, reference %d", slot, sw.mid.buffered, ref.buffered)
		}
		if got := liveBlocks(sw.mid); got != ref.stripes {
			t.Fatalf("slot %d: %d blocks held, %d stripes in the reference stage", slot, got, ref.stripes)
		}
		for m := 0; m < tc.n; m++ {
			for j := 0; j < tc.n; j++ {
				if a, b := sw.mid.queueLen(m, j), ref.queueLen(m, j); a != b {
					t.Fatalf("slot %d: %d cells at port %d for output %d, reference %d", slot, a, m, j, b)
				}
			}
		}
	}
	if a, b := sw.DelayBreakdown(), twin.DelayBreakdown(); a != b || a.Count == 0 {
		t.Fatalf("delay breakdown %+v, reference %+v", a, b)
	}
	if a, b := sw.Backlog(), twin.Backlog()+ref.buffered; a != b {
		t.Fatalf("backlog %d, reference %d", a, b)
	}
	if a, b := sw.Resizes(), twin.Resizes(); a != b || tc.adaptive != nil && a == 0 {
		t.Fatalf("%d resizes, reference %d", a, b)
	}
	if ref.overlaps == 0 {
		t.Fatal("no two stripes of one (output, interval) were ever in the stage together")
	}
}
