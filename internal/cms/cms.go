// Package cms implements the Concurrent Matching Switch of Lin and
// Keslassy (Sec. 2.3 / [13] in the paper) — the matching-based alternative
// to striping for reordering-free load-balanced switching.
//
// Instead of load-balancing packets, a CMS load-balances *request tokens*:
// when a packet arrives at VOQ (i, j), input i sends a token for (i, j) to
// the next intermediate port in round-robin order, so each port holds
// roughly 1/N of every VOQ's outstanding demand. Once per frame (N slots)
// every intermediate port independently computes a maximal matching between
// inputs and outputs over its *local* token counts — it has N slots to do
// so, which is what makes per-port matching affordable. N ports times up to
// N matched pairs per frame gives full line rate.
//
// The switch is pipelined at frame granularity, which is what makes it
// conflict-free and reordering-free:
//
//	frame f:   tokens matched (grants computed, packets bound)
//	frame f+1: bound packets cross the first fabric — each input meets
//	           each port exactly once per frame, so every transfer fits
//	frame f+2: the ports forward to the outputs — each port meets each
//	           output exactly once per frame, and a matching stages at
//	           most one packet per (port, output)
//
// Ordering needs no coordination at all beyond the pipeline: every packet
// bound in frame f departs during frame f+2, strictly before anything bound
// in frame f+1, and within a frame output j drains the ports at fixed sweep
// positions (port m at offset (m-j) mod N). Each input therefore binds a
// VOQ's packets to its granted ports in sweep-position order, and per-flow
// FIFO order holds both within and across frames. The test suite verifies
// zero reordering empirically across loads and patterns.
package cms

import (
	"sort"

	"sprinklers/internal/midstage"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Switch is a Concurrent Matching Switch.
type Switch struct {
	n int
	t sim.Slot

	voq    [][]queue.RecordFIFO // voq[i][j], on chunks[i]
	chunks []queue.RecordPool   // one pool per input

	// tokenRR[i][j]: the intermediate port receiving VOQ (i,j)'s next
	// token, so demand spreads evenly over the ports.
	tokenRR [][]int
	// tokens[m][i][j]: outstanding request tokens at intermediate port m.
	tokens [][][]int

	// pending[m][i]: packet bound at the last frame boundary, crossing
	// the first fabric during the current frame (ok marks occupancy).
	pending   [][]sim.Packet
	pendingOK [][]bool

	// holding[m]: packets that arrived at port m over the first fabric
	// during the current frame; flushed into the center stage at the next
	// boundary so the second fabric serves them in the frame after.
	holding [][]sim.Packet

	mid *midstage.Stage

	matchPrio int
	inBuf     int
	inHold    int

	// Reusable matching buffers (one matching runs every N slots; keeping
	// these out of the per-frame allocation path keeps Step allocation-free
	// in steady state).
	grantOut [][]int
	outUsed  []bool
	grants   []grantRec
}

// grantRec is one grant awaiting packet binding: flow (in, out), granting
// port m, and the port's sweep position for the output.
type grantRec struct {
	in, out, m, pos int
}

// New builds an n-port Concurrent Matching Switch.
func New(n int) *Switch {
	s := &Switch{
		n:         n,
		voq:       make([][]queue.RecordFIFO, n),
		chunks:    make([]queue.RecordPool, n),
		tokenRR:   make([][]int, n),
		tokens:    make([][][]int, n),
		pending:   make([][]sim.Packet, n),
		pendingOK: make([][]bool, n),
		holding:   make([][]sim.Packet, n),
		mid:       midstage.New(n),
	}
	for i := 0; i < n; i++ {
		s.voq[i] = make([]queue.RecordFIFO, n)
		s.tokenRR[i] = make([]int, n)
		for j := 0; j < n; j++ {
			// Stagger starting ports so token load is even from the
			// first packet of every VOQ.
			s.tokenRR[i][j] = (i + j) % n
		}
	}
	for m := 0; m < n; m++ {
		s.tokens[m] = make([][]int, n)
		for i := 0; i < n; i++ {
			s.tokens[m][i] = make([]int, n)
		}
		s.pending[m] = make([]sim.Packet, n)
		s.pendingOK[m] = make([]bool, n)
	}
	s.grantOut = make([][]int, n)
	for m := range s.grantOut {
		s.grantOut[m] = make([]int, n)
	}
	s.outUsed = make([]bool, n)
	s.grants = make([]grantRec, 0, n*n)
	return s
}

// N implements sim.Switch.
func (s *Switch) N() int { return s.n }

// Now implements sim.Switch.
func (s *Switch) Now() sim.Slot { return s.t }

// Backlog implements sim.Switch.
func (s *Switch) Backlog() int { return s.inBuf + s.inHold + s.mid.Backlog() }

// Arrive implements sim.Switch: buffer the packet and load-balance a
// request token to the VOQ's next round-robin intermediate port.
func (s *Switch) Arrive(p sim.Packet) {
	s.voq[p.In][p.Out].Push(&s.chunks[p.In], queue.RecordOf(p))
	s.inBuf++
	m := s.tokenRR[p.In][p.Out]
	s.tokenRR[p.In][p.Out] = (m + 1) % s.n
	s.tokens[m][p.In][p.Out]++
}

// Step implements sim.Switch. Frames are aligned to t ≡ 0 (mod N).
func (s *Switch) Step(deliver sim.DeliverFunc) {
	t := s.t
	if t%sim.Slot(s.n) == 0 {
		s.frameBoundary(t)
	}
	s.mid.Step(t, deliver)
	// First fabric: input i hands its bound packet to the connected port.
	for i := 0; i < s.n; i++ {
		m := sim.FirstStage(i, t, s.n)
		if !s.pendingOK[m][i] {
			continue
		}
		s.pendingOK[m][i] = false
		s.holding[m] = append(s.holding[m], s.pending[m][i])
	}
	s.t++
}

// frameBoundary advances the pipeline: flush last frame's arrivals into the
// center stage, then compute this frame's matchings and bind packets.
func (s *Switch) frameBoundary(t sim.Slot) {
	for m := 0; m < s.n; m++ {
		for _, p := range s.holding[m] {
			s.mid.Enqueue(m, p)
			s.inHold--
		}
		s.holding[m] = s.holding[m][:0]
	}
	s.computeMatchings()
}

// computeMatchings runs one greedy maximal matching at every intermediate
// port over its local tokens, then binds each VOQ's packets to its granted
// ports in output-sweep order.
func (s *Switch) computeMatchings() {
	// Matching per port; grantOut[m][i] = matched output or -1. The
	// priority offset rotates so no input or output is structurally
	// favored.
	off := s.matchPrio
	s.matchPrio = (s.matchPrio + 1) % s.n
	s.grants = s.grants[:0]
	for m := 0; m < s.n; m++ {
		grantOut := s.grantOut[m]
		outUsed := s.outUsed
		for i := range grantOut {
			grantOut[i] = -1
			outUsed[i] = false
		}
		for a := 0; a < s.n; a++ {
			i := (off + m + a) % s.n
			for b := 0; b < s.n; b++ {
				j := (off + i + b) % s.n
				if outUsed[j] || s.tokens[m][i][j] == 0 {
					continue
				}
				s.tokens[m][i][j]--
				grantOut[i] = j
				outUsed[j] = true
				break
			}
		}
		for i, j := range grantOut {
			if j >= 0 {
				s.grants = append(s.grants, grantRec{
					in: i, out: j, m: m, pos: (m - j + s.n) % s.n,
				})
			}
		}
	}
	// Bind: consume each VOQ's packets in the order output j's sweep will
	// serve the granted ports — port m is drained at offset (m-j) mod N of
	// the delivery frame — so a flow's packets depart in FIFO order.
	sort.Slice(s.grants, func(x, y int) bool {
		a, b := s.grants[x], s.grants[y]
		if a.in != b.in {
			return a.in < b.in
		}
		if a.out != b.out {
			return a.out < b.out
		}
		return a.pos < b.pos
	})
	for _, g := range s.grants {
		q := &s.voq[g.in][g.out]
		if q.Len() == 0 {
			panic("cms: grant without a packet")
		}
		// The only place a VOQ shrinks: its record becomes a packet again.
		s.pending[g.m][g.in] = q.Pop(&s.chunks[g.in]).Packet(g.in, g.out)
		s.pendingOK[g.m][g.in] = true
		s.inBuf--
		s.inHold++
	}
}
