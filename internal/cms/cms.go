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
	"sprinklers/internal/midstage"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
)

// Switch is a Concurrent Matching Switch.
type Switch struct {
	n int
	w int // words of a bit set over n ports (queue.BitWords)
	t sim.Slot

	voq    [][]queue.RecordFIFO // voq[i][j], on chunks[i]
	chunks []queue.RecordPool   // one pool per input

	// tokenRR[i][j]: the intermediate port receiving VOQ (i,j)'s next
	// token, so demand spreads evenly over the ports.
	tokenRR [][]int
	// tokens[(m*n+i)*n+j]: outstanding request tokens for VOQ (i,j) at
	// intermediate port m, one flat slab.
	tokens []int32
	// tokenBits[(m*n+i)*w:][:w]: the outputs j with tokens[(m*n+i)*n+j]
	// > 0, so a port finds input i's next requested output with one
	// find-first-set per word instead of a scan over all n outputs.
	tokenBits []uint64

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
	// in steady state). outUsed and free are bit sets over outputs: the
	// outputs the current port has granted, and one input's requested
	// outputs less those. granted[(i*n+j)*w:][:w] is the set of ports that
	// granted VOQ (i,j) this frame, and bound lists each such VOQ once.
	outUsed []uint64
	free    []uint64
	granted []uint64
	bound   []int
}

// New builds an n-port Concurrent Matching Switch.
func New(n int) *Switch {
	w := queue.BitWords(n)
	s := &Switch{
		n:         n,
		w:         w,
		voq:       make([][]queue.RecordFIFO, n),
		chunks:    make([]queue.RecordPool, n),
		tokenRR:   make([][]int, n),
		tokens:    make([]int32, n*n*n),
		tokenBits: make([]uint64, n*n*w),
		pending:   make([][]sim.Packet, n),
		pendingOK: make([][]bool, n),
		holding:   make([][]sim.Packet, n),
		mid:       midstage.New(n),
		outUsed:   make([]uint64, w),
		free:      make([]uint64, w),
		granted:   make([]uint64, n*n*w),
		bound:     make([]int, 0, n*n),
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
		s.pending[m] = make([]sim.Packet, n)
		s.pendingOK[m] = make([]bool, n)
		// Each input meets port m once per frame.
		s.holding[m] = make([]sim.Packet, 0, n)
	}
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
	i, j := int(p.In), int(p.Out)
	s.voq[i][j].Push(&s.chunks[i], p)
	s.inBuf++
	m := s.tokenRR[i][j]
	s.tokenRR[i][j] = (m + 1) % s.n
	s.tokens[(m*s.n+i)*s.n+j]++
	queue.SetBit(s.tokenBits[(m*s.n+i)*s.w:], j)
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
//
// Port m visits the inputs from (off+m) mod N onward, and input i takes the
// first output at or cyclically after (off+i) mod N that it holds a token
// for and that no earlier input at this port took: one find-first-set over
// the input's token bit set less the port's granted outputs. The priority
// offset off rotates every frame so no input or output is structurally
// favored.
//
// Binding needs no global order. Each (port, input) grants at most once, so
// a VOQ's packets go only to its own granted ports, and the VOQs bind
// independently. Output j's sweep drains port m at offset (m-j) mod N of
// the delivery frame, so walking the VOQ's granted-port bit set cyclically
// from j hands out its packets in FIFO order of departure.
func (s *Switch) computeMatchings() {
	n, w := s.n, s.w
	off := s.matchPrio
	s.matchPrio = (s.matchPrio + 1) % n
	for m := 0; m < n; m++ {
		clear(s.outUsed)
		grants := 0
		i := (off + m) % n
		for a := 0; a < n && grants < n; a++ {
			row := (m*n + i) * w
			bits := s.tokenBits[row : row+w]
			avail := uint64(0)
			for k, b := range bits {
				s.free[k] = b &^ s.outUsed[k]
				avail |= s.free[k]
			}
			if avail != 0 {
				start := off + i
				if start >= n {
					start -= n
				}
				j := queue.NextSet(s.free, start)
				if s.tokens[(m*n+i)*n+j]--; s.tokens[(m*n+i)*n+j] == 0 {
					queue.ClearBit(bits, j)
				}
				queue.SetBit(s.outUsed, j)
				grants++
				g := s.granted[(i*n+j)*w : (i*n+j)*w+w]
				if isEmpty(g) {
					s.bound = append(s.bound, i*n+j)
				}
				queue.SetBit(g, m)
			}
			if i++; i == n {
				i = 0
			}
		}
	}
	for _, f := range s.bound {
		i, j := f/n, f%n
		q := &s.voq[i][j]
		g := s.granted[f*w : f*w+w]
		for m := queue.NextSet(g, j); m >= 0; m = queue.NextSet(g, m) {
			queue.ClearBit(g, m)
			if q.Len() == 0 {
				panic("cms: grant without a packet")
			}
			// The only place a VOQ shrinks: its record becomes a packet again.
			r, seq := q.Pop(&s.chunks[i])
			s.pending[m][i] = r.Packet(seq, i, j)
			s.pendingOK[m][i] = true
			s.inBuf--
			s.inHold++
		}
	}
	s.bound = s.bound[:0]
}

// isEmpty reports whether no bit of bm is set.
func isEmpty(bm []uint64) bool {
	for _, b := range bm {
		if b != 0 {
			return false
		}
	}
	return true
}
