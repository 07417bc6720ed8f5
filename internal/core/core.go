// Package core implements the Sprinklers switch — the paper's primary
// contribution. A Sprinklers switch has the same two-stage fabric as the
// baseline load-balanced switch but routes every VOQ's traffic down a single
// "fat path": a dyadic stripe interval of intermediate ports whose size is
// roughly proportional to the VOQ's rate (Eq. 1) and whose placement comes
// from a weakly uniform random Orthogonal Latin Square (Sec. 3.3). Packets
// are grouped into stripes of exactly the interval size and both stages
// schedule whole stripes with the Largest Stripe First (LSF) policy
// (Sec. 3.4), which keeps every stripe's packets contiguous and therefore
// keeps every flow in order.
//
// # Scheduler variants
//
// The paper describes LSF twice: Algorithm 1 is stripe-aware (a stripe may
// only begin service when the fabric connection reaches the first port of
// its interval and is then served in consecutive slots), while Sec. 3.4.2
// describes a stripe-oblivious per-row scan of the N x (log2 N + 1) FIFO
// bank. The two differ in corner cases: the row scan is strictly
// work-conserving but can split a stripe across frames when a larger stripe
// arrives mid-service, which loses the contiguity that the ordering proof
// relies on. This package implements both:
//
//   - GatedLSF (default): stripe-atomic service. Zero reordering, proved by
//     the test suite over randomized admissible workloads.
//   - GreedyLSF: the literal row scan. Work-conserving; the ablation bench
//     quantifies how much reordering it admits.
//
// # Layout
//
//	core.go      configuration and top-level Switch
//	stripegen.go per-VOQ state: Eq. 1 sizing around the OLS-placed primary port,
//	             the chunked packet queue, and the stripe descriptor
//	input.go     input ports: arrival, stripe cutting, stripe FIFO bank, LSF service
//	mid.go       intermediate ports and the per-output virtual schedule grids:
//	             per-interval stripe queues over blocks (gated), the per-row
//	             cell bank (greedy, and every size-1 stripe)
//	blocks.go    the center-stage block pool: 2^k records per stripe, per-size
//	             free lists over one slab
//	adaptive.go  measured-rate stripe resizing with the Sec. 5 clearance phase
package core

import (
	"fmt"
	"math/rand"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/permute"
	"sprinklers/internal/sim"
)

// Scheduler selects the LSF implementation variant.
type Scheduler int

const (
	// GatedLSF is stripe-atomic Largest Stripe First: a stripe starts only
	// when the fabric reaches the head of its interval and is then served
	// in consecutive slots. This is the order-preserving variant.
	GatedLSF Scheduler = iota
	// GreedyLSF is the per-row largest-first scan of Sec. 3.4.2. It is
	// strictly work-conserving but may interleave stripes.
	GreedyLSF
)

// String returns the scheduler name.
func (s Scheduler) String() string {
	switch s {
	case GatedLSF:
		return "gated-lsf"
	case GreedyLSF:
		return "greedy-lsf"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Placement selects how the N^2 primary intermediate ports are generated.
type Placement int

const (
	// PlacementOLS (default) draws the primaries from a weakly uniform
	// random Orthogonal Latin Square, so the VOQs at each input AND the
	// VOQs toward each output both occupy distinct primaries (Sec. 3.3.3).
	PlacementOLS Placement = iota
	// PlacementIndependent draws an independent uniform permutation per
	// input port. Input-side balance still holds, but the VOQs destined
	// to one output may collide on primaries, so the output side of the
	// switch loses its balance guarantee. It exists for the ablation
	// bench that demonstrates why the OLS coordination matters.
	PlacementIndependent
)

// String returns the placement name.
func (p Placement) String() string {
	switch p {
	case PlacementOLS:
		return "ols"
	case PlacementIndependent:
		return "independent"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Config configures a Sprinklers switch.
type Config struct {
	// N is the port count; it must be a power of two (Sec. 3.1).
	N int
	// Rates is the (estimated) VOQ rate matrix used for initial stripe
	// sizing; Rates[i][j] is the rate from input i to output j in packets
	// per slot. If nil, every VOQ starts at DefaultStripeSize.
	Rates [][]float64
	// DefaultStripeSize is the initial stripe size for VOQs with no rate
	// estimate (Rates nil). It must be a power of two <= N; 0 means 1.
	DefaultStripeSize int
	// Scheduler selects the LSF variant; the zero value is GatedLSF.
	Scheduler Scheduler
	// Placement selects the primary-port generation scheme; the zero
	// value is PlacementOLS.
	Placement Placement
	// Rand supplies the randomness for the stripe-placement OLS. If nil a
	// deterministic source seeded with 1 is used.
	Rand *rand.Rand
	// Adaptive, when non-nil, enables measured-rate stripe resizing with
	// the clearance phase of Sec. 5.
	Adaptive *AdaptiveConfig
}

func (c Config) validate() error {
	if !dyadic.IsPow2(c.N) {
		return fmt.Errorf("core: N=%d is not a power of two", c.N)
	}
	if c.Rates != nil {
		if len(c.Rates) != c.N {
			return fmt.Errorf("core: rate matrix has %d rows, want %d", len(c.Rates), c.N)
		}
		for i, row := range c.Rates {
			if len(row) != c.N {
				return fmt.Errorf("core: rate matrix row %d has %d entries, want %d", i, len(row), c.N)
			}
		}
	}
	if c.DefaultStripeSize != 0 &&
		(!dyadic.IsPow2(c.DefaultStripeSize) || c.DefaultStripeSize > c.N) {
		return fmt.Errorf("core: default stripe size %d invalid for N=%d", c.DefaultStripeSize, c.N)
	}
	if c.Scheduler != GatedLSF && c.Scheduler != GreedyLSF {
		return fmt.Errorf("core: unknown scheduler %d", int(c.Scheduler))
	}
	if c.Placement != PlacementOLS && c.Placement != PlacementIndependent {
		return fmt.Errorf("core: unknown placement %d", int(c.Placement))
	}
	if c.Adaptive != nil {
		if err := c.Adaptive.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Switch is a Sprinklers switch. Create one with New.
type Switch struct {
	cfg    Config
	n      int
	levels int // log2(N)+1 stripe sizes
	t      sim.Slot
	ols    *permute.OLS // primary ports under PlacementOLS
	indep  [][]int      // primary ports under PlacementIndependent

	inputs []*inputPort
	mid    *midStage

	// pending holds the current slot's arrivals, in arrival order, until
	// Step applies them to the input ports in one pass.
	pending []sim.Packet

	adaptive  *adaptiveState
	breakdown breakdown

	// header is the stripe-size header (Sec. 3.4.3) of the packet emit is
	// delivering, set before the deliver callback runs. sim.Packet has no
	// room for it, so the white-box tests read it here from their callbacks.
	header int32
}

// New builds a Sprinklers switch from cfg.
func New(cfg Config) (*Switch, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	s := &Switch{
		cfg:     cfg,
		n:       cfg.N,
		levels:  dyadic.Levels(cfg.N),
		pending: make([]sim.Packet, 0, cfg.N),
	}
	switch cfg.Placement {
	case PlacementOLS:
		s.ols = permute.NewOLS(cfg.N, rng)
	case PlacementIndependent:
		s.indep = make([][]int, cfg.N)
		for i := range s.indep {
			s.indep[i] = permute.Uniform(cfg.N, rng)
		}
	}
	s.inputs = make([]*inputPort, s.n)
	for i := range s.inputs {
		s.inputs[i] = newInputPort(s, i)
	}
	s.mid = newMidStage(s)
	if cfg.Adaptive != nil {
		s.adaptive = newAdaptiveState(s, *cfg.Adaptive)
	}
	return s, nil
}

// MustNew is New but panics on configuration errors; convenient in examples
// and tests.
func MustNew(cfg Config) *Switch {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// N implements sim.Switch.
func (s *Switch) N() int { return s.n }

// Now implements sim.Switch.
func (s *Switch) Now() sim.Slot { return s.t }

// Backlog implements sim.Switch.
func (s *Switch) Backlog() int {
	total := s.mid.buffered + len(s.pending)
	for _, in := range s.inputs {
		total += in.buffered
	}
	return total
}

// StripeInterval returns the dyadic stripe interval currently assigned to
// VOQ (i, j); exposed for tests and the load-balance analysis example.
func (s *Switch) StripeInterval(i, j int) dyadic.Interval {
	return s.inputs[i].voqs[j].iv
}

// PrimaryPort returns the primary intermediate port assigned to VOQ (i, j).
func (s *Switch) PrimaryPort(i, j int) int {
	if s.indep != nil {
		return s.indep[i][j]
	}
	return s.ols.At(i, j)
}

// The fabric connection patterns specialized to the power-of-two N this
// switch requires: the generic sim helpers divide by N, these mask. The
// AND of a two's-complement value with N-1 is exactly the non-negative
// mod-N residue, so they agree with sim.FirstStage / sim.SecondStage /
// sim.IntermediateFor on every slot.
func (s *Switch) firstStage(i int, t sim.Slot) int      { return (i + int(t)) & (s.n - 1) }
func (s *Switch) secondStage(l int, t sim.Slot) int     { return (l - int(t)) & (s.n - 1) }
func (s *Switch) intermediateFor(j int, t sim.Slot) int { return (j + int(t)) & (s.n - 1) }

// Arrive implements sim.Switch. It checks the ports and holds the packet
// until Step, which applies the slot's arrivals in one pass: at large N
// every arrival lands on a cold VOQ line, and those misses are cheaper paid
// back to back than one at a time inside the traffic source's draw loop.
func (s *Switch) Arrive(p sim.Packet) {
	if int(p.In) < 0 || int(p.In) >= s.n || int(p.Out) < 0 || int(p.Out) >= s.n {
		panic(fmt.Sprintf("core: packet ports (%d,%d) out of range for N=%d", p.In, p.Out, s.n))
	}
	s.pending = append(s.pending, p)
}

// applyArrivals buffers the pending packets at their input ports, in
// arrival order, and empties the pending slice.
func (s *Switch) applyArrivals() {
	for _, p := range s.pending {
		if s.adaptive != nil {
			s.adaptive.onArrival(p)
		}
		s.inputs[p.In].arrive(p)
	}
	s.pending = s.pending[:0]
}

// Step implements sim.Switch. It first applies the slot's arrivals. The
// second fabric runs before the first so that a packet spends at least one
// full slot at an intermediate port, which is also what makes the
// intermediate-stage lockstep argument of the gated scheduler sound.
func (s *Switch) Step(deliver sim.DeliverFunc) {
	s.applyArrivals()
	t := s.t
	s.mid.step(t, deliver)
	for i := 0; i < s.n; i++ {
		s.inputs[i].transmit(t, s.mid)
	}
	if s.adaptive != nil {
		s.adaptive.onSlotEnd(t)
	}
	s.t++
}

// emit completes the departure of a cell of a stripe of the given size
// popped from the intermediate stage: delay accounting, adaptive clearance
// bookkeeping, and the caller's delivery callback.
func (s *Switch) emit(c cell, size int, t sim.Slot, deliver sim.DeliverFunc) {
	s.breakdown.record(c, t)
	s.onDelivered(c.pkt)
	s.header = int32(size)
	if deliver != nil {
		deliver(sim.Delivery{Packet: c.pkt, Depart: t})
	}
}
