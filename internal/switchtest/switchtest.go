// Package switchtest provides shared helpers for testing switch
// implementations: randomized admissible workloads, a scripted arrival
// source, packet-conservation checks, ordering checks, throughput sanity
// checks, and a Checker that holds any sim.Switch to the physical
// constraints of the two-stage load-balanced switch model while a
// simulation runs:
//
//   - at most one packet departs per output port per slot (the second
//     fabric's speed);
//   - at most N departures per slot in total;
//   - departures are stamped with the current slot;
//   - no two packets in flight share (In, Out, Seq), the triple that names
//     a packet;
//   - every delivered packet was previously offered via Arrive, is
//     delivered exactly once, and is the packet that was offered, field for
//     field (a switch may queue less than a whole sim.Packet and rebuild it;
//     only the stripe-size header is the switch's to write);
//   - the backlog reported by the switch equals offered minus delivered.
//
// Violating any of these means a switch implementation is cheating the
// model (e.g. teleporting packets or exceeding fabric speed), which would
// invalidate every delay comparison. The integration tests wrap all seven
// architectures in a Checker. The package is imported only by test files.
package switchtest

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

// Result summarizes a test run.
type Result struct {
	Offered   int64
	Delivered int64
	Delay     *stats.Delay
	Reorder   *stats.Reorder
}

// Run drives sw with Bernoulli arrivals from m for the given number of
// slots (after a warmup of slots/10) and returns the measured statistics.
func Run(sw sim.Switch, m *traffic.Matrix, slots sim.Slot, seed int64) Result {
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(seed)))
	delay := &stats.Delay{}
	reorder := stats.NewReorder(m.N())
	obs := stats.Multi{delay, reorder}
	offered, delivered := sim.Run(sw, src, obs, sim.WithWarmup(slots/10), sim.WithSlots(slots))
	return Result{Offered: offered, Delivered: delivered, Delay: delay, Reorder: reorder}
}

// CheckConservation verifies that every offered packet is either delivered
// or still buffered in the switch. Because the runner only counts packets
// arriving after the warmup, the switch backlog may also contain warmup
// packets, so the check is: delivered <= offered and offered - delivered <=
// backlog.
func CheckConservation(t *testing.T, sw sim.Switch, r Result) {
	t.Helper()
	if r.Delivered > r.Offered {
		t.Fatalf("delivered %d packets but only %d were offered", r.Delivered, r.Offered)
	}
	if missing := r.Offered - r.Delivered; missing > int64(sw.Backlog()) {
		t.Fatalf("conservation violated: %d measured packets unaccounted for (backlog %d)",
			missing, sw.Backlog())
	}
}

// CheckOrdered fails the test if any delivery was out of per-flow order.
func CheckOrdered(t *testing.T, r Result) {
	t.Helper()
	if n := r.Reorder.Reordered(); n != 0 {
		t.Fatalf("switch reordered %d of %d packets (max seq gap %d)",
			n, r.Reorder.Total(), r.Reorder.MaxGap())
	}
}

// CheckThroughput fails the test unless at least frac of the offered
// packets were delivered.
func CheckThroughput(t *testing.T, r Result, frac float64) {
	t.Helper()
	if r.Offered == 0 {
		t.Fatal("no packets offered; workload misconfigured")
	}
	got := float64(r.Delivered) / float64(r.Offered)
	if got < frac {
		t.Fatalf("throughput %.3f below required %.3f (offered %d, delivered %d)",
			got, frac, r.Offered, r.Delivered)
	}
}

// RandomAdmissible builds a random admissible rate matrix with every row
// and column sum at most load: it scales a random doubly-substochastic
// matrix built from a mixture of random permutation matrices (a truncated
// Birkhoff decomposition).
func RandomAdmissible(n int, load float64, rng *rand.Rand) *traffic.Matrix {
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	// Mix a handful of random permutations with random convex weights.
	k := 4
	weights := make([]float64, k)
	var total float64
	for i := range weights {
		weights[i] = rng.Float64() + 0.1
		total += weights[i]
	}
	for _, w := range weights {
		perm := rng.Perm(n)
		for i, j := range perm {
			rates[i][j] += load * w / total
		}
	}
	return traffic.NewMatrix(rates)
}

// EmissionIDs numbers packets 0, 1, 2 … in the order a source emits them.
// That is the global ID every source stamped on its packets before (In, Out,
// Seq) became a packet's only name, so a trace pin recorded then can look
// a delivered packet's old ID up and hash the bytes it always has.
type EmissionIDs struct {
	next uint64
	ids  map[flowSeq]uint64
}

// flowSeq is the name of a packet: its flow and its place in the flow.
type flowSeq struct {
	in, out int32
	seq     uint64
}

// Wrap returns emit preceded by numbering the packet.
func (e *EmissionIDs) Wrap(emit func(sim.Packet)) func(sim.Packet) {
	if e.ids == nil {
		e.ids = make(map[flowSeq]uint64)
	}
	return func(p sim.Packet) {
		e.ids[flowSeq{p.In, p.Out, p.Seq}] = e.next
		e.next++
		emit(p)
	}
}

// Take returns the number of delivered packet p and forgets it; p must have
// been emitted through Wrap and not taken before.
func (e *EmissionIDs) Take(p sim.Packet) uint64 {
	k := flowSeq{p.In, p.Out, p.Seq}
	id, ok := e.ids[k]
	if !ok {
		panic(fmt.Sprintf("switchtest: packet %+v delivered but never emitted (or twice)", k))
	}
	delete(e.ids, k)
	return id
}
