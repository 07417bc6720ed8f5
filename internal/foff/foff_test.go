package foff

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

func TestOrderingAcrossLoads(t *testing.T) {
	// FOFF delivers out of order internally; the embedded resequencer
	// must hide that completely from the observer.
	for _, load := range []float64{0.1, 0.5, 0.9} {
		m := traffic.Uniform(16, load)
		sw := New(16)
		r := switchtest.Run(sw, m, 60000, 27)
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
		switchtest.CheckThroughput(t, r, 0.9)
	}
}

func TestOrderingDiagonalAndRandom(t *testing.T) {
	m := traffic.Diagonal(16, 0.9)
	sw := New(16)
	r := switchtest.Run(sw, m, 60000, 28)
	switchtest.CheckOrdered(t, r)

	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 3; trial++ {
		m := switchtest.RandomAdmissible(8, 0.85, rng)
		sw := New(8)
		r := switchtest.Run(sw, m, 40000, rng.Int63())
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
	}
}

// TestLowLoadNoAccumulationWait: unlike UFS, FOFF serves partial frames, so
// light-load delay stays near the fabric latency — the advantage Fig. 6
// shows.
func TestLowLoadNoAccumulationWait(t *testing.T) {
	const n = 16
	m := traffic.Uniform(n, 0.1)
	sw := New(n)
	r := switchtest.Run(sw, m, 100000, 30)
	if mean := r.Delay.Mean(); mean > 5*n {
		t.Fatalf("FOFF light-load delay %.0f; should be a few fabric rounds", mean)
	}
}

// TestResequencerBoundedByN2: the paper bounds FOFF's reordering by O(N^2);
// the resequencing buffer occupancy must stay within a small multiple of
// N^2.
func TestResequencerBoundedByN2(t *testing.T) {
	const n = 16
	m := traffic.Uniform(n, 0.95)
	sw := New(n)
	switchtest.Run(sw, m, 150000, 31)
	if occ := sw.maxHeld; occ > 4*n*n {
		t.Fatalf("resequencer occupancy %d exceeds 4*N^2 = %d", occ, 4*n*n)
	}
}

// TestFullFramePriority: when a full frame and a lone packet compete for
// the same service slot (both VOQs at port offset 0), the full frame wins
// and holds the input until it completes, so all N of its packets leave the
// input before the lone packet.
func TestFullFramePriority(t *testing.T) {
	// White-box: preload the VOQs so a full frame (output 0) and a lone
	// packet (output 1, arrived "earlier") both want intermediate port 0
	// in the very first slot. The full frame must win the tie and hold
	// the input until it completes.
	const n = 4
	sw := New(n)
	sw.Arrive(sim.Packet{In: 0, Out: 1, Seq: 0}) // lone packet, RR-earlier? no: VOQ order favors 0
	for k := 0; k < n; k++ {
		sw.Arrive(sim.Packet{In: 0, Out: 0, Seq: uint64(k)})
	}
	// Bias the round-robin pointer TOWARD the lone packet's VOQ so that
	// only class priority, not scan order, can explain the outcome.
	sw.rr[0] = 1
	var frameDeparts []sim.Slot
	var loneDepart sim.Slot
	count := 0
	for tt := 0; tt < 200 && count < n+1; tt++ {
		sw.Step(func(d sim.Delivery) {
			count++
			if d.Packet.Out == 0 {
				frameDeparts = append(frameDeparts, d.Depart)
			} else {
				loneDepart = d.Depart
			}
		})
	}
	if count != n+1 {
		t.Fatalf("delivered %d of %d", count, n+1)
	}
	// The full frame won the first service slot (despite the RR bias) and
	// held the input, so the lone packet crossed the fabric a full round
	// later: its departure cannot precede any frame packet's.
	for u, d := range frameDeparts {
		if loneDepart < d {
			t.Fatalf("lone packet departed at %d before frame packet %d at %d", loneDepart, u, d)
		}
		if u > 0 && d != frameDeparts[u-1]+1 {
			t.Fatalf("frame departures %v not contiguous", frameDeparts)
		}
	}
}

// TestDeterministicStriping: the k-th packet of every VOQ must traverse
// intermediate port k mod N. Observed indirectly: a flow's packets depart
// the input in seq order at slots whose connection advances by exactly one
// port per packet.
func TestDeterministicStriping(t *testing.T) {
	const n = 4
	sw := New(n)
	tr := switchtest.NewTrace(n)
	for k := 0; k < 2*n; k++ {
		tr.Add(sim.Slot(k), 1, 3)
	}
	var count int
	for tt := sim.Slot(0); tt < 200; tt++ {
		tr.Next(tt, sw.Arrive)
		sw.Step(func(d sim.Delivery) {
			// Output 3's sweep: the packet with flow seq s sits at
			// intermediate s mod n, so the delivery slot satisfies
			// IntermediateFor(3, t, n) == s mod n.
			if sim.IntermediateFor(3, d.Depart, n) != int(d.Packet.Seq)%n {
				t.Fatalf("seq %d delivered from intermediate %d",
					d.Packet.Seq, sim.IntermediateFor(3, d.Depart, n))
			}
			count++
		})
	}
	if count != 2*n {
		t.Fatalf("delivered %d of %d", count, 2*n)
	}
}

func TestBurstyArrivalsStillOrdered(t *testing.T) {
	m := traffic.Diagonal(8, 0.8)
	sw := New(8)
	src := traffic.NewOnOff(m, 20, rand.New(rand.NewSource(33)))
	reorder := stats.NewReorder(8)
	sim.Run(sw, src, reorder, sim.WithWarmup(10000), sim.WithSlots(80000))
	if reorder.Reordered() != 0 {
		t.Fatalf("reordered %d packets", reorder.Reordered())
	}
}

// refScheduler is the O(N)-per-input round-robin scan that the switch's bit
// sets replaced, kept as the picker's oracle, beside the output side as
// first written (refResequencer into refPacer). It reads only the queues'
// lengths: a VOQ's next port is its head packet's flow sequence number mod N
// (the k-th packet of a flow traverses port k mod N), which is the number of
// packets the VOQ has served. That count, and which VOQs are inside a full
// ordered frame, it tracks in its own tables.
type refScheduler struct {
	served    []uint64 // packets VOQ i*n+j has served: its head's Seq
	full      []bool   // VOQ i*n+j is inside a full ordered frame
	preferred int      // picks that full-frame priority decided
	reseq     *refResequencer
	pacer     *refPacer
}

func newRefScheduler(n int) *refScheduler {
	pacer := newRefPacer(n)
	return &refScheduler{served: make([]uint64, n*n), full: make([]bool, n*n), reseq: newRefResequencer(n, pacer), pacer: pacer}
}

// classOf ranks a VOQ for service priority: 2 = inside a full ordered
// frame, 1 = can start a full ordered frame now, 0 = incomplete frame.
func (r *refScheduler) classOf(s *Switch, v int) int {
	atBoundary := r.served[v]%uint64(s.n) == 0
	switch {
	case !atBoundary && r.full[v]:
		return 2
	case atBoundary && s.voq[v].Len() >= s.n:
		return 1
	default:
		return 0
	}
}

func (r *refScheduler) pick(s *Switch, i, l int) int {
	pick, pickClass := -1, -1
	for k := 0; k < s.n; k++ {
		j := (s.rr[i] + k) % s.n
		q := &s.voq[i*s.n+j]
		if q.Len() == 0 {
			continue
		}
		if int(r.served[i*s.n+j]%uint64(s.n)) != l {
			continue
		}
		class := r.classOf(s, i*s.n+j)
		if class > pickClass {
			if pick >= 0 {
				r.preferred++ // a later, higher-class VOQ overtook the first eligible one
			}
			pick, pickClass = j, class
			if class == 2 {
				break
			}
		}
	}
	return pick
}

// step is Switch.Step with the reference output side and the reference
// pick in place of Switch.output and Switch.pick.
func (r *refScheduler) step(s *Switch, deliver sim.DeliverFunc) {
	t := s.t
	s.mid.Step(t, r.reseq.Observe)
	r.pacer.Drain(t, deliver)
	for i := 0; i < s.n; i++ {
		l := sim.FirstStage(i, t, s.n)
		j := r.pick(s, i, l)
		if j < 0 {
			continue
		}
		v := i*s.n + j
		if l == 0 {
			r.full[v] = s.voq[v].Len() >= s.n
		}
		s.serve(i, j, l)
		r.served[v]++
		if l == s.n-1 {
			r.full[v] = false
		}
	}
	s.t++
}

// TestPickMatchesReferenceScan drives identical seeded arrivals through a
// switch scheduled by the reference scan and output side and one scheduled
// by the bit sets and per-output windows, at sizes on both sides of the one-
// and two-word boundaries: the two must deliver the same packets in the same
// slots and end with the same backlog. (Their resequencing high-water marks
// differ by a little: each counts within a slot, and the reference files a
// slot's packets in port order, the switch in output order.)
func TestPickMatchesReferenceScan(t *testing.T) {
	type delivered struct {
		in, out int32
		seq     uint64
		arrival sim.Slot
		depart  sim.Slot
	}
	sources := map[string]func(m *traffic.Matrix, seed int64) sim.Source{
		"bernoulli": func(m *traffic.Matrix, seed int64) sim.Source {
			return traffic.NewBernoulli(m, rand.New(rand.NewSource(seed)))
		},
		"bursty": func(m *traffic.Matrix, seed int64) sim.Source {
			return traffic.NewOnOff(m, float64(2*m.N()), rand.New(rand.NewSource(seed)))
		},
	}
	for _, n := range []int{3, 8, 64, 65, 130} {
		for name, newSource := range sources {
			t.Run(fmt.Sprintf("%s/N-%d", name, n), func(t *testing.T) {
				// Half of each input's load on one VOQ, so full frames
				// form even at N = 130, and the rest spread over all.
				m := traffic.Hotspot(n, 0.95, 0.5)
				const slots = 4000
				run := func(step func(*Switch, sim.DeliverFunc)) (*Switch, []delivered) {
					sw, src := New(n), newSource(m, int64(n))
					var trace []delivered
					deliver := func(d sim.Delivery) {
						p := d.Packet
						trace = append(trace, delivered{p.In, p.Out, p.Seq, p.Arrival, d.Depart})
					}
					for sw.Now() < slots {
						src.Next(sw.Now(), sw.Arrive)
						step(sw, deliver)
					}
					return sw, trace
				}
				ref := newRefScheduler(n)
				refSw, want := run(ref.step)
				sw, got := run((*Switch).Step)
				if len(want) == 0 || ref.preferred == 0 || ref.reseq.MaxHeld() == 0 {
					t.Fatalf("reference delivered %d packets, %d picks decided by priority, held at most %d: the workload does not exercise the switch",
						len(want), ref.preferred, ref.reseq.MaxHeld())
				}
				if len(got) != len(want) {
					t.Fatalf("delivered %d packets, reference %d", len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("delivery %d: %+v, reference %+v", k, got[k], want[k])
					}
				}
				refBacklog := refSw.inBuf + refSw.mid.Backlog() + ref.reseq.Held() + ref.pacer.Held()
				if b := sw.Backlog(); b != refBacklog {
					t.Errorf("final backlog %d, reference %d", b, refBacklog)
				}
				t.Logf("%d deliveries, %d priority picks, %d held at most", len(want), ref.preferred, sw.maxHeld)
			})
		}
	}
}

// TestFOFFSteadyState: past the start-up transient a slot allocates
// nothing — no closure, no per-packet node, and nothing per flow that goes
// out of order. Under random arrivals the inputs' chunk pools and the
// resequencer windows keep meeting new high-water marks, ever more rarely:
// 73 allocations in the 16 384 slots after this warm-up, one per 224 (with a
// private ring per VOQ it was 162, one per 101), and 22-35 per 8 192 slots
// four times later. The budget is therefore "fewer than one allocation per
// 128 slots", which any per-slot or per-packet allocation exceeds two
// hundredfold and which per-VOQ rings would fail.
func TestFOFFSteadyState(t *testing.T) {
	const n = 32
	sw := New(n)
	src := traffic.NewBernoulli(traffic.Uniform(n, 0.9), rand.New(rand.NewSource(1)))
	arrive := sw.Arrive
	step := func() {
		src.Next(sw.Now(), arrive)
		sw.Step(nil)
	}
	for sw.Now() < 40*n*n {
		step()
	}
	if sw.maxHeld == 0 {
		t.Fatal("nothing was ever resequenced: the run does not exercise the windows")
	}
	const run = 128
	if allocs := testing.AllocsPerRun(run, func() {
		for k := 0; k < run; k++ {
			step()
		}
	}); allocs != 0 {
		t.Fatalf("steady state allocated %v times per %d slots", allocs, run)
	}
}

// TestBufferLayout pins FOFF's output side: a held packet is its 8-byte
// arrival slot in its flow's window, and a packet waiting for its output's
// line is a 24-byte sim.Packet in its pacing FIFO, so a 32-byte sim.Delivery
// there fails it. TestBufferLayout in internal/queue pins the center stage's
// node.
func TestBufferLayout(t *testing.T) {
	var s Switch
	var f reseqFlow
	if got := unsafe.Sizeof(f.win[0]); got != 8 {
		t.Errorf("a resequencing window slot is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(s.paced[0].Pop()); got != 24 {
		t.Errorf("a pacing FIFO entry is %d bytes, want 24", got)
	}
}
