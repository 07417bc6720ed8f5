package midstage

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
)

// padLongest is a PF-style idle policy: pad input i's longest VOQ if it
// holds more than min packets.
func padLongest(sp *Spreader, min int) func(i int) int {
	return func(i int) int {
		longest, best := -1, min
		for j := 0; j < sp.n; j++ {
			if l := sp.VOQLen(i, j); l > best {
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
		"pf-pad":   func(sp *Spreader) func(int) int { return padLongest(sp, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			sp := NewSpreader(n)
			pad := policy(sp)
			var seq [n][n]uint64
			var next [n][n]uint64
			var offered, delivered int
			deliver := func(d sim.Delivery) {
				in, out := d.Packet.In, d.Packet.Out
				if d.Packet.Fake || d.Packet.Seq != next[in][out] {
					t.Fatalf("flow (%d,%d) delivered seq %d fake=%v, want seq %d", in, out, d.Packet.Seq, d.Packet.Fake, next[in][out])
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

// refSpreader schedules a Spreader with the O(N) round-robin walk over the
// VOQs that the ready sets replaced; it is the oracle for startFull and
// reads queue lengths only.
type refSpreader struct {
	contested int // picks made with more than one VOQ holding a full frame
}

func (r *refSpreader) pickFull(sp *Spreader, i int) int {
	pick := -1
	for k := 0; k < sp.n; k++ {
		j := (sp.inputs[i].rr + k) % sp.n
		if sp.voq[i*sp.n+j].Len() >= sp.n {
			if pick >= 0 {
				r.contested++
				break
			}
			pick = j
		}
	}
	return pick
}

// step is Spreader.Step with pickFull in place of the ready-set lookup.
func (r *refSpreader) step(sp *Spreader, t sim.Slot, deliver sim.DeliverFunc, pad func(i int) int) {
	sp.mid.Step(t, deliver)
	for i := range sp.inputs {
		in := &sp.inputs[i]
		if in.pos == sp.n {
			if j := r.pickFull(sp, i); j >= 0 {
				sp.fillFrame(i, j)
				sp.startFrame(i, j)
			} else {
				if pad == nil {
					continue
				}
				if j = pad(i); j < 0 {
					continue
				}
				sp.startPadded(i, j, t)
			}
		}
		c := Cell{Pkt: in.frame[in.pos], FrameID: in.frameID, FlowSeq: in.flowSeq, Index: int32(in.pos)}
		in.pos++
		if !c.Pkt.Fake {
			sp.inBuf--
		}
		sp.mid.Enqueue(sim.FirstStage(i, t, sp.n), c)
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
	var id uint64
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
			arrive(sim.Packet{ID: id, In: int32(i), Out: int32(dest[i]), Seq: seq[f], Arrival: t})
			id++
			seq[f]++
		}
	}
}

// TestStartFullMatchesReferenceScan drives identical seeded arrivals
// through a reference-scheduled and a ready-set-scheduled Spreader, under
// the UFS and the PF idle policies, at sizes on both sides of the one- and
// two-word boundaries: both must deliver the same packets in the same
// slots.
func TestStartFullMatchesReferenceScan(t *testing.T) {
	type delivered struct {
		id     uint64
		depart sim.Slot
	}
	for _, n := range []int{3, 8, 64, 65, 130} {
		for _, burst := range []float64{1, float64(2 * n)} {
			for _, policy := range []string{"ufs-idle", "pf-pad"} {
				t.Run(fmt.Sprintf("burst-%v/%s/N-%d", burst, policy, n), func(t *testing.T) {
					slots := sim.Slot(max(4000, 50*n))
					run := func(ref *refSpreader) []delivered {
						sp := NewSpreader(n)
						next := skewedArrivals(n, 0.9, burst, int64(n))
						var pad func(int) int
						if policy == "pf-pad" {
							// Pad only a frame one packet short, so that
							// VOQs still fill up and contend.
							pad = padLongest(sp, sp.n-2)
						}
						var trace []delivered
						deliver := func(d sim.Delivery) {
							trace = append(trace, delivered{d.Packet.ID, d.Depart})
						}
						for now := sim.Slot(0); now < slots; now++ {
							next(now, sp.Arrive)
							if ref != nil {
								ref.step(sp, now, deliver, pad)
							} else {
								sp.Step(now, deliver, pad)
							}
						}
						return trace
					}
					ref := &refSpreader{}
					want := run(ref)
					got := run(nil)
					if len(want) == 0 || ref.contested == 0 {
						t.Fatalf("reference delivered %d packets with %d contested picks: the workload does not exercise the pointer", len(want), ref.contested)
					}
					if len(got) != len(want) {
						t.Fatalf("delivered %d packets, reference %d", len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("delivery %d: packet %d at slot %d, reference packet %d at slot %d",
								k, got[k].id, got[k].depart, want[k].id, want[k].depart)
						}
					}
					t.Logf("%d deliveries, %d contested picks", len(want), ref.contested)
				})
			}
		}
	}
}
