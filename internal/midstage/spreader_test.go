package midstage

import (
	"testing"

	"sprinklers/internal/sim"
)

// TestSpreaderSteadyState drives the shared full-frame input side at half
// load with and without a padding policy: every flow is delivered in
// order, nothing is lost, and once the queues have reached their high-water
// marks a slot allocates nothing — in particular no per-frame buffer.
func TestSpreaderSteadyState(t *testing.T) {
	const n = 8
	padLongest := func(sp *Spreader) func(int) int {
		return func(i int) int {
			longest, best := -1, 0
			for j := 0; j < n; j++ {
				if l := sp.VOQLen(i, j); l > best {
					best, longest = l, j
				}
			}
			return longest
		}
	}
	for name, policy := range map[string]func(*Spreader) func(int) int{
		"ufs-idle": func(*Spreader) func(int) int { return nil },
		"pf-pad":   padLongest,
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
