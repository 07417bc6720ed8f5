package core

import (
	"fmt"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/sim"
)

// AdaptiveConfig enables online stripe resizing. Sec. 3.3.2 sets stripe
// sizes from measured VOQ rates and delays halving/doubling to avoid
// thrashing; Sec. 5 requires a clearance phase — all in-flight packets of
// the old stripe size must leave the switch before the new size is used, or
// stripes of different sizes from one VOQ could overtake each other.
type AdaptiveConfig struct {
	// Window is the rate-measurement window in slots. 0 means 4*N*N,
	// which resolves rates down to the 1/N^2 granularity that the sizing
	// rule distinguishes.
	Window sim.Slot
	// Gamma is the EWMA smoothing weight applied to each window's
	// measured rate, in (0, 1]. 0 means 0.3.
	Gamma float64
	// HoldWindows is the number of consecutive windows that must agree on
	// a new stripe size before a resize is initiated (the anti-thrashing
	// delay of Sec. 3.3.2). 0 means 2.
	HoldWindows int
}

func (c *AdaptiveConfig) validate() error {
	if c.Window < 0 {
		return fmt.Errorf("core: adaptive window %d must be >= 0", c.Window)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("core: adaptive gamma %v must be in [0, 1]", c.Gamma)
	}
	if c.HoldWindows < 0 {
		return fmt.Errorf("core: adaptive hold windows %d must be >= 0", c.HoldWindows)
	}
	return nil
}

func (c AdaptiveConfig) withDefaults(n int) AdaptiveConfig {
	if c.Window == 0 {
		c.Window = sim.Slot(4 * n * n)
	}
	if c.Gamma == 0 {
		c.Gamma = 0.3
	}
	if c.HoldWindows == 0 {
		c.HoldWindows = 2
	}
	return c
}

// adaptiveState tracks per-VOQ arrival counts, EWMA rate estimates and
// resize streaks.
type adaptiveState struct {
	sw      *Switch
	cfg     AdaptiveConfig
	counts  [][]int64
	rate    [][]float64
	desired [][]int // stripe size the latest estimate calls for
	streak  [][]int // consecutive windows agreeing on desired
	resizes int64
}

func newAdaptiveState(sw *Switch, cfg AdaptiveConfig) *adaptiveState {
	a := &adaptiveState{
		sw:      sw,
		cfg:     cfg.withDefaults(sw.n),
		counts:  make([][]int64, sw.n),
		rate:    make([][]float64, sw.n),
		desired: make([][]int, sw.n),
		streak:  make([][]int, sw.n),
	}
	for i := 0; i < sw.n; i++ {
		a.counts[i] = make([]int64, sw.n)
		a.rate[i] = make([]float64, sw.n)
		a.desired[i] = make([]int, sw.n)
		a.streak[i] = make([]int, sw.n)
		for j := 0; j < sw.n; j++ {
			// Seed the estimate with the configured initial rate so a
			// correctly provisioned switch does not resize at startup.
			if sw.cfg.Rates != nil {
				a.rate[i][j] = sw.cfg.Rates[i][j]
			}
			a.desired[i][j] = sw.inputs[i].voqs[j].iv.Size
		}
	}
	return a
}

func (a *adaptiveState) onArrival(p sim.Packet) {
	a.counts[p.In][p.Out]++
}

// onSlotEnd closes a measurement window when due and updates estimates.
func (a *adaptiveState) onSlotEnd(t sim.Slot) {
	if (t+1)%a.cfg.Window != 0 {
		return
	}
	w := float64(a.cfg.Window)
	for i := 0; i < a.sw.n; i++ {
		for j := 0; j < a.sw.n; j++ {
			measured := float64(a.counts[i][j]) / w
			a.counts[i][j] = 0
			a.rate[i][j] = (1-a.cfg.Gamma)*a.rate[i][j] + a.cfg.Gamma*measured
			want := dyadic.StripeSize(a.rate[i][j], a.sw.n)
			v := &a.sw.inputs[i].voqs[j]
			target := v.iv.Size
			if v.pending != 0 {
				target = int(v.pending)
			}
			if want == target {
				a.streak[i][j] = 0
				continue
			}
			if want == a.desired[i][j] {
				a.streak[i][j]++
			} else {
				a.desired[i][j] = want
				a.streak[i][j] = 1
			}
			if a.streak[i][j] >= a.cfg.HoldWindows && v.pending == 0 {
				a.beginResize(i, j, want)
				a.streak[i][j] = 0
			}
		}
	}
}

// beginResize starts the clearance phase for VOQ (i, j): stripe formation
// stops and the new size takes effect once every committed packet of the
// old size has left the switch.
func (a *adaptiveState) beginResize(i, j, size int) {
	in := a.sw.inputs[i]
	v := &in.voqs[j]
	v.pending = int32(size)
	in.refreshFast(v)
	a.sw.maybeFinishResize(in, v)
}

// onDelivered updates clearance bookkeeping when a packet leaves the switch.
// The per-VOQ committed count only feeds the adaptive clearance phase, so
// without adaptation the per-delivery VOQ access (a cache miss per packet at
// large N) is skipped entirely; formStripes skips the matching increment.
func (s *Switch) onDelivered(p sim.Packet) {
	if s.adaptive == nil {
		return
	}
	v := &s.inputs[p.In].voqs[p.Out]
	v.committed--
	if v.committed < 0 {
		panic("core: committed packet count went negative")
	}
	if v.pending != 0 {
		s.maybeFinishResize(s.inputs[p.In], v)
	}
}

// maybeFinishResize completes a pending resize once the VOQ has no packets
// committed to the old stripe size anywhere in the switch.
func (s *Switch) maybeFinishResize(in *inputPort, v *voqState) {
	if v.pending == 0 || v.committed != 0 {
		return
	}
	v.setSize(int(v.pending), s.PrimaryPort(in.i, int(v.out)))
	v.pending = 0
	if s.adaptive != nil {
		s.adaptive.resizes++
	}
	in.formStripes(v)
	in.refreshFast(v)
}

// Resizes reports how many stripe resizes have completed (0 when adaptation
// is disabled).
func (s *Switch) Resizes() int64 {
	if s.adaptive == nil {
		return 0
	}
	return s.adaptive.resizes
}

// EstimatedRate returns the adaptive rate estimate for VOQ (i, j); it
// returns the configured rate when adaptation is disabled.
func (s *Switch) EstimatedRate(i, j int) float64 {
	if s.adaptive != nil {
		return s.adaptive.rate[i][j]
	}
	if s.cfg.Rates != nil {
		return s.cfg.Rates[i][j]
	}
	return 0
}

// StripeSizeOf returns the current stripe size of VOQ (i, j).
func (s *Switch) StripeSizeOf(i, j int) int { return s.inputs[i].voqs[j].iv.Size }

// StripeSizeHistogram returns how many VOQs currently sit at each stripe
// size — a one-look summary of how (adaptive) provisioning has spread the
// switch across the dyadic sizes. Keys are the sizes in use.
func (s *Switch) StripeSizeHistogram() map[int]int {
	h := make(map[int]int)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			h[s.inputs[i].voqs[j].iv.Size]++
		}
	}
	return h
}
