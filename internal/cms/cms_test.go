package cms

import (
	"math/rand"
	"sort"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/switchtest"
	"sprinklers/internal/traffic"
)

func TestOrderingAcrossLoads(t *testing.T) {
	for _, load := range []float64{0.2, 0.6, 0.9} {
		m := traffic.Uniform(16, load)
		sw := New(16)
		r := switchtest.Run(sw, m, 60000, 51)
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
		switchtest.CheckThroughput(t, r, 0.9)
	}
}

func TestOrderingDiagonalZipfRandom(t *testing.T) {
	for _, m := range []*traffic.Matrix{
		traffic.Diagonal(16, 0.85),
		traffic.Zipf(16, 0.8, 1.2),
	} {
		sw := New(16)
		r := switchtest.Run(sw, m, 60000, 52)
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
	}
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 3; trial++ {
		m := switchtest.RandomAdmissible(8, 0.8, rng)
		sw := New(8)
		r := switchtest.Run(sw, m, 40000, rng.Int63())
		switchtest.CheckConservation(t, sw, r)
		switchtest.CheckOrdered(t, r)
	}
}

func TestOrderingBursty(t *testing.T) {
	m := traffic.Diagonal(8, 0.75)
	sw := New(8)
	src := traffic.NewOnOff(m, 20, rand.New(rand.NewSource(54)))
	reorder := newDetector()
	sim.Run(sw, src, reorder, sim.WithWarmup(8000), sim.WithSlots(60000))
	if reorder.bad != 0 {
		t.Fatalf("reordered %d packets under bursty arrivals", reorder.bad)
	}
}

// TestPipelineLatency: an isolated packet takes roughly three frames
// (match, first fabric, second fabric) — the O(N) frame-pipeline latency
// that distinguishes CMS from the baseline.
func TestPipelineLatency(t *testing.T) {
	const n = 8
	sw := New(n)
	tr := traffic.NewTrace(n)
	tr.Add(0, 2, 5)
	var got *sim.Delivery
	for tt := sim.Slot(0); tt < 10*n && got == nil; tt++ {
		tr.Next(tt, sw.Arrive)
		sw.Step(func(d sim.Delivery) {
			cp := d
			got = &cp
		})
	}
	if got == nil {
		t.Fatal("packet never delivered")
	}
	if delay := got.Delay(); delay < sim.Slot(n) || delay > sim.Slot(4*n) {
		t.Fatalf("isolated-packet delay %d, want ~2-3 frames (N=%d)", delay, n)
	}
	if sw.Backlog() != 0 {
		t.Fatalf("backlog %d after delivery", sw.Backlog())
	}
}

// TestHotVOQFullRate: a single VOQ at high rate must be served at close to
// its arrival rate — the token spreading lets all N ports grant it in one
// frame, which is exactly what the one-pair-per-port design would get
// wrong.
func TestHotVOQFullRate(t *testing.T) {
	const n = 16
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	rates[3][9] = 0.9
	m := traffic.NewMatrix(rates)
	sw := New(n)
	r := switchtest.Run(sw, m, 100000, 55)
	switchtest.CheckOrdered(t, r)
	switchtest.CheckThroughput(t, r, 0.95)
}

// TestTokenConservation: tokens plus bound/in-flight packets must account
// for every buffered packet (white box).
func TestTokenConservation(t *testing.T) {
	const n = 8
	sw := New(n)
	m := traffic.Uniform(n, 0.7)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(56)))
	for tt := sim.Slot(0); tt < 5000; tt++ {
		src.Next(tt, sw.Arrive)
		sw.Step(nil)
	}
	voqPkts := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			voqPkts += sw.voq[i][j].Len()
		}
	}
	tokenCount := 0
	for _, c := range sw.tokens {
		tokenCount += int(c)
	}
	// Every unmatched buffered packet has exactly one outstanding token;
	// grants in flight (bound this frame) have consumed both.
	if tokenCount != voqPkts {
		t.Fatalf("tokens %d != buffered packets %d", tokenCount, voqPkts)
	}
}

type detector struct {
	seen map[[2]int]int64
	bad  int64
}

func newDetector() *detector { return &detector{seen: map[[2]int]int64{}} }

func (d *detector) Observe(dv sim.Delivery) {
	k := [2]int{int(dv.Packet.In), int(dv.Packet.Out)}
	if prev, ok := d.seen[k]; ok && int64(dv.Packet.Seq) < prev {
		d.bad++
		return
	}
	d.seen[k] = int64(dv.Packet.Seq)
}

// refGrant is one grant of the reference matcher: flow (in, out), granting
// port m, and the port's sweep position for the output.
type refGrant struct {
	in, out, m, pos int
}

// refMatch is the per-port matcher as first written: for every input an
// output scan with two modulo operations a probe, then one sort of every
// grant into binding order, (in, out, sweep position). It consumes the
// granted tokens of tokens[m][i][j] and returns the grants in the order
// their packets bind.
func refMatch(n, off int, tokens [][][]int) []refGrant {
	var grants []refGrant
	grantOut := make([]int, n)
	outUsed := make([]bool, n)
	for m := 0; m < n; m++ {
		for i := range grantOut {
			grantOut[i] = -1
			outUsed[i] = false
		}
		for a := 0; a < n; a++ {
			i := (off + m + a) % n
			for b := 0; b < n; b++ {
				j := (off + i + b) % n
				if outUsed[j] || tokens[m][i][j] == 0 {
					continue
				}
				tokens[m][i][j]--
				grantOut[i] = j
				outUsed[j] = true
				break
			}
		}
		for i, j := range grantOut {
			if j >= 0 {
				grants = append(grants, refGrant{in: i, out: j, m: m, pos: (m - j + n) % n})
			}
		}
	}
	sort.Slice(grants, func(x, y int) bool {
		a, b := grants[x], grants[y]
		if a.in != b.in {
			return a.in < b.in
		}
		if a.out != b.out {
			return a.out < b.out
		}
		return a.pos < b.pos
	})
	return grants
}

// TestMatchingMatchesReference runs computeMatchings frame by frame against
// refMatch over random token states — tokens dealt to random ports, a few
// hot VOQs holding many, densities from a handful of tokens to several per
// VOQ — at one-word, word-boundary and three-word N. Every frame must grant
// the same (port, input, output) triples, bind the same packets and leave
// the same token counts, with the token bit sets agreeing with the counts.
func TestMatchingMatchesReference(t *testing.T) {
	for _, n := range []int{2, 8, 63, 64, 65, 130} {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		sw := New(n)
		tokens := make([][][]int, n)
		for m := range tokens {
			tokens[m] = make([][]int, n)
			for i := range tokens[m] {
				tokens[m][i] = make([]int, n)
			}
		}
		voq := make([][][]sim.Packet, n)
		seq := make([][]uint64, n)
		for i := range voq {
			voq[i] = make([][]sim.Packet, n)
			seq[i] = make([]uint64, n)
		}
		hot := make([][2]int, 1+n/8)
		for k := range hot {
			hot[k] = [2]int{rng.Intn(n), rng.Intn(n)}
		}
		for frame := 0; frame < 8; frame++ {
			arrivals := rng.Intn(1 + []int{n, n * n / 4, 2 * n * n}[frame%3])
			for a := 0; a < arrivals; a++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if rng.Intn(3) == 0 {
					h := hot[rng.Intn(len(hot))]
					i, j = h[0], h[1]
				}
				m := rng.Intn(n)
				sw.tokenRR[i][j] = m
				p := sim.Packet{Seq: seq[i][j], In: int32(i), Out: int32(j), Arrival: sim.Slot(frame)}
				seq[i][j]++
				sw.Arrive(p)
				tokens[m][i][j]++
				voq[i][j] = append(voq[i][j], p)
			}
			sw.matchPrio = rng.Intn(n)
			grants := refMatch(n, sw.matchPrio, tokens)
			sw.computeMatchings()

			granted := 0
			for _, g := range grants {
				want := voq[g.in][g.out][0]
				voq[g.in][g.out] = voq[g.in][g.out][1:]
				if !sw.pendingOK[g.m][g.in] || sw.pending[g.m][g.in] != want {
					t.Fatalf("N=%d frame %d: port %d input %d bound %+v (ok %v), reference %+v",
						n, frame, g.m, g.in, sw.pending[g.m][g.in], sw.pendingOK[g.m][g.in], want)
				}
				sw.pendingOK[g.m][g.in] = false
				granted++
			}
			for m := range sw.pendingOK {
				for i, ok := range sw.pendingOK[m] {
					if ok {
						t.Fatalf("N=%d frame %d: port %d input %d bound %+v, reference granted nothing",
							n, frame, m, i, sw.pending[m][i])
					}
				}
			}
			for m := 0; m < n; m++ {
				for i := 0; i < n; i++ {
					row := sw.tokenBits[(m*n+i)*sw.w:]
					for j := 0; j < n; j++ {
						got := int(sw.tokens[(m*n+i)*n+j])
						if got != tokens[m][i][j] || (got > 0) != (row[j>>6]>>(j&63)&1 == 1) {
							t.Fatalf("N=%d frame %d: tokens[%d][%d][%d] = %d (bit %d), reference %d",
								n, frame, m, i, j, got, row[j>>6]>>(j&63)&1, tokens[m][i][j])
						}
					}
				}
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if sw.voq[i][j].Len() != len(voq[i][j]) {
						t.Fatalf("N=%d frame %d: VOQ (%d,%d) holds %d, reference %d",
							n, frame, i, j, sw.voq[i][j].Len(), len(voq[i][j]))
					}
				}
			}
			if !isEmpty(sw.granted) || len(sw.bound) != 0 {
				t.Fatalf("N=%d frame %d: grant sets not cleared after binding", n, frame)
			}
			if frame > 0 && granted == 0 && arrivals > 0 {
				t.Fatalf("N=%d frame %d: no grant from %d arrivals", n, frame, arrivals)
			}
		}
	}
}

// TestStepZeroAllocSteadyState: once the VOQ chunk pools, the center stage
// and the holding buffers have reached their working sets, a whole frame —
// arrivals, the per-port matchings, binding and both fabrics — allocates
// nothing.
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, n := range []int{8, 70} {
		sw := New(n)
		src := traffic.NewBernoulli(traffic.Uniform(n, 0.9), rand.New(rand.NewSource(int64(57+n))))
		arrive := sw.Arrive
		frame := func() {
			for k := 0; k < n; k++ {
				src.Next(sw.Now(), arrive)
				sw.Step(nil)
			}
		}
		for k := 0; k < 50; k++ {
			frame()
		}
		if allocs := testing.AllocsPerRun(20, frame); allocs != 0 {
			t.Fatalf("N=%d: steady-state frame allocated %v times, want 0", n, allocs)
		}
	}
}
