package midstage

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
)

// padLongest is a PF-style idle policy over an n-port switch's VOQ
// lengths: pad input i's longest VOQ if it holds more than min packets.
func padLongest(voqLen func(i, j int) int, n, min int) func(i int) int {
	return func(i int) int {
		longest, best := -1, min
		for j := 0; j < n; j++ {
			if l := voqLen(i, j); l > best {
				best, longest = l, j
			}
		}
		return longest
	}
}

// TestSpreaderSteadyState drives the shared full-frame input side at half
// load with and without a padding policy: every flow is delivered in
// order, nothing is lost, and once the queues have reached their high-water
// marks a slot allocates nothing — in particular no per-frame buffer.
func TestSpreaderSteadyState(t *testing.T) {
	const n = 8
	for name, policy := range map[string]func(*Spreader) func(int) int{
		"ufs-idle": func(*Spreader) func(int) int { return nil },
		"pf-pad":   func(sp *Spreader) func(int) int { return padLongest(sp.VOQLen, n, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			sp := NewSpreader(n)
			pad := policy(sp)
			var seq [n][n]uint64
			var next [n][n]uint64
			var offered, delivered int
			deliver := func(d sim.Delivery) {
				in, out := d.Packet.In, d.Packet.Out
				if d.Packet.Seq != next[in][out] {
					t.Fatalf("flow (%d,%d) delivered seq %d, want seq %d", in, out, d.Packet.Seq, next[in][out])
				}
				next[in][out]++
				delivered++
			}
			var now sim.Slot
			step := func() {
				if now%2 == 0 { // load 1/2, destinations rotating
					for i := 0; i < n; i++ {
						j := (i + int(now/2)) % n
						sp.Arrive(sim.Packet{In: int32(i), Out: int32(j), Seq: seq[i][j], Arrival: now})
						seq[i][j]++
						offered++
					}
				}
				sp.Step(now, deliver, pad)
				now++
			}
			for now < 40*n*n {
				step()
			}
			if delivered == 0 || offered != delivered+sp.Backlog() {
				t.Fatalf("offered %d, delivered %d, backlog %d", offered, delivered, sp.Backlog())
			}
			if (sp.PaddingInjected() > 0) != (pad != nil) {
				t.Fatalf("padding injected = %d with pad policy set: %v", sp.PaddingInjected(), pad != nil)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				for k := 0; k < 4*n*n; k++ {
					step()
				}
			}); allocs != 0 {
				t.Fatalf("steady state allocated %v times per %d slots", allocs, 4*n*n)
			}
		})
	}
}

// refSpreader is the full-frame switch as it was first written, and the
// oracle for Spreader. Packets wait in per-VOQ slices; an idle input scans
// its VOQs round-robin for a full frame, copies the frame into a buffer and
// sends one cell a slot; every cell is queued at its (port, output) pair
// with its frame's identity, and an output extracts the cells of the frame
// it serves from wherever they sit in those queues. It shares no code with
// Spreader beyond sim.
//
// Five faults, each applied to Spreader by hand, make
// TestStartFullMatchesReferenceScan fail: no per-flow sequence gate; a
// frame queued one port late; padding departing before the frame's
// packets; a ready bit left set after a frame drains the VOQ below N; an
// input free to start a frame one slot early.
type refSpreader struct {
	n         int
	voq       [][]sim.Packet // VOQ i*n+j
	inputs    []refInput
	cells     [][]refCell // queue m*n+j: cells at port m for output j
	grids     []refGrid   // per-output frame service
	frameSeq  []uint64    // per flow: frames started
	next      []uint64    // per flow: the frame sequence number allowed to begin
	nextID    uint64
	backlog   int
	padded    int64
	contested int // picks made with more than one VOQ holding a full frame
}

type refInput struct {
	frame            []sim.Packet // cells [pos, n) still to send
	pos              int
	real             int // cells [real, n) are padding
	frameID, flowSeq uint64
	rr               int
}

type refCell struct {
	pkt              sim.Packet
	frameID, flowSeq uint64
	index            int
	pad              bool
}

type refGrid struct {
	serving bool
	frameID uint64
	row     int
	left    int
}

func newRefSpreader(n int) *refSpreader {
	r := &refSpreader{
		n:        n,
		voq:      make([][]sim.Packet, n*n),
		inputs:   make([]refInput, n),
		cells:    make([][]refCell, n*n),
		grids:    make([]refGrid, n),
		frameSeq: make([]uint64, n*n),
		next:     make([]uint64, n*n),
	}
	for i := range r.inputs {
		r.inputs[i] = refInput{frame: make([]sim.Packet, n), pos: n}
	}
	return r
}

func (r *refSpreader) arrive(p sim.Packet) {
	v := int(p.In)*r.n + int(p.Out)
	r.voq[v] = append(r.voq[v], p)
	r.backlog++
}

func (r *refSpreader) voqLen(i, j int) int { return len(r.voq[i*r.n+j]) }

func (r *refSpreader) step(t sim.Slot, deliver sim.DeliverFunc, pad func(i int) int) {
	for j := 0; j < r.n; j++ {
		r.stepOutput(j, t, deliver)
	}
	for i := range r.inputs {
		in := &r.inputs[i]
		if in.pos == r.n {
			j := r.pickFull(i)
			if j < 0 && pad != nil {
				j = pad(i)
			}
			if j < 0 {
				continue
			}
			r.startFrame(i, j, t)
		}
		c := refCell{pkt: in.frame[in.pos], frameID: in.frameID, flowSeq: in.flowSeq, index: in.pos, pad: in.pos >= in.real}
		in.pos++
		m := (i + int(t)) % r.n
		q := m*r.n + int(c.pkt.Out)
		r.cells[q] = append(r.cells[q], c)
	}
}

// pickFull scans input i's VOQs round-robin from its pointer for one
// holding a full frame.
func (r *refSpreader) pickFull(i int) int {
	pick := -1
	for k := 0; k < r.n; k++ {
		j := (r.inputs[i].rr + k) % r.n
		if len(r.voq[i*r.n+j]) >= r.n {
			if pick >= 0 {
				r.contested++
				break
			}
			pick = j
		}
	}
	return pick
}

// startFrame moves up to N packets of VOQ (i, j) into input i's frame
// buffer, pads the rest, and numbers the frame.
func (r *refSpreader) startFrame(i, j int, t sim.Slot) {
	in, v := &r.inputs[i], i*r.n+j
	k := copy(in.frame, r.voq[v])
	r.voq[v] = r.voq[v][k:]
	for u := k; u < r.n; u++ {
		in.frame[u] = sim.Packet{In: int32(i), Out: int32(j), Arrival: t}
	}
	r.padded += int64(r.n - k)
	in.pos, in.real = 0, k
	in.frameID = r.nextID
	r.nextID++
	in.flowSeq = r.frameSeq[v]
	r.frameSeq[v]++
	in.rr = (j + 1) % r.n
}

func (r *refSpreader) stepOutput(j int, t sim.Slot, deliver sim.DeliverFunc) {
	g := &r.grids[j]
	m := (j + int(t)) % r.n
	q := m*r.n + j
	match := func(c refCell) bool { return c.index == 0 && r.next[int(c.pkt.In)*r.n+j] == c.flowSeq }
	if g.serving {
		match = func(c refCell) bool { return c.frameID == g.frameID }
	}
	k := 0
	for k < len(r.cells[q]) && !match(r.cells[q][k]) {
		k++
	}
	if k == len(r.cells[q]) {
		if g.serving {
			panic("reference: in-service frame's cell missing")
		}
		return
	}
	c := r.cells[q][k]
	r.cells[q] = append(r.cells[q][:k], r.cells[q][k+1:]...)
	if g.serving {
		g.left--
		g.serving = g.left > 0
	} else {
		r.next[int(c.pkt.In)*r.n+j]++
		*g = refGrid{serving: r.n > 1, frameID: c.frameID, left: r.n - 1}
	}
	if c.pad {
		return
	}
	r.backlog--
	if deliver != nil {
		deliver(sim.Delivery{Packet: c.pkt, Depart: t})
	}
}

// skewedArrivals returns a seeded arrival process at the given load whose
// destinations at input i are (i+k) mod n with probability 2^-(k+1), so a
// few VOQs per input fill frames at different rates and compete for the
// round-robin pointer. With meanBurst > 1 arrivals come in geometric
// bursts to one destination, back to back.
func skewedArrivals(n int, load, meanBurst float64, seed int64) func(t sim.Slot, arrive func(sim.Packet)) {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]uint64, n*n)
	on := make([]bool, n)
	dest := make([]int, n)
	pOff := 1 / meanBurst
	pOn := pOff * load / (1 - load)
	return func(t sim.Slot, arrive func(sim.Packet)) {
		for i := 0; i < n; i++ {
			if on[i] && rng.Float64() < pOff {
				on[i] = false
			}
			if !on[i] {
				if rng.Float64() >= pOn {
					continue
				}
				on[i] = true
				k := 0
				for k < n-1 && rng.Intn(2) == 0 {
					k++
				}
				dest[i] = (i + k) % n
			}
			f := i*n + dest[i]
			arrive(sim.Packet{In: int32(i), Out: int32(dest[i]), Seq: seq[f], Arrival: t})
			seq[f]++
		}
	}
}

// TestStartFullMatchesReferenceScan drives identical seeded arrivals
// through refSpreader and Spreader, under the UFS and the PF idle policies,
// at sizes on both sides of the one- and two-word ready-set boundaries: both
// must deliver the same packets in the same slots and agree on backlog and
// padding every slot. The reference's VOQ scan replaces Spreader's ready
// sets, and its per-cell queues replace the frame descriptors, so a fault in
// either shows here.
func TestStartFullMatchesReferenceScan(t *testing.T) {
	type delivered struct {
		in, out int32
		seq     uint64
		depart  sim.Slot
	}
	deliveryOf := func(d sim.Delivery) delivered {
		return delivered{d.Packet.In, d.Packet.Out, d.Packet.Seq, d.Depart}
	}
	for _, n := range []int{3, 8, 64, 65, 130} {
		for _, burst := range []float64{1, float64(2 * n)} {
			for _, policy := range []string{"ufs-idle", "pf-pad"} {
				t.Run(fmt.Sprintf("burst-%v/%s/N-%d", burst, policy, n), func(t *testing.T) {
					slots := sim.Slot(max(4000, 50*n))
					var pad, refPad func(int) int
					sp, ref := NewSpreader(n), newRefSpreader(n)
					if policy == "pf-pad" {
						// Pad only a frame one packet short, so that VOQs
						// still fill up and contend.
						pad = padLongest(sp.VOQLen, n, n-2)
						refPad = padLongest(ref.voqLen, n, n-2)
					}
					next, refNext := skewedArrivals(n, 0.9, burst, int64(n)), skewedArrivals(n, 0.9, burst, int64(n))
					var got, want []delivered
					for now := sim.Slot(0); now < slots; now++ {
						next(now, sp.Arrive)
						refNext(now, ref.arrive)
						sp.Step(now, func(d sim.Delivery) { got = append(got, deliveryOf(d)) }, pad)
						ref.step(now, func(d sim.Delivery) { want = append(want, deliveryOf(d)) }, refPad)
						if sp.Backlog() != ref.backlog || sp.PaddingInjected() != ref.padded {
							t.Fatalf("slot %d: backlog %d, padding %d; reference %d, %d",
								now, sp.Backlog(), sp.PaddingInjected(), ref.backlog, ref.padded)
						}
					}
					if len(want) == 0 || ref.contested == 0 {
						t.Fatalf("reference delivered %d packets with %d contested picks: the workload does not exercise the pointer", len(want), ref.contested)
					}
					if len(got) != len(want) {
						t.Fatalf("delivered %d packets, reference %d", len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("delivery %d: %+v, reference %+v", k, got[k], want[k])
						}
					}
					t.Logf("%d deliveries, %d contested picks, %d padding cells", len(want), ref.contested, ref.padded)
				})
			}
		}
	}
}
