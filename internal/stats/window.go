package stats

import (
	"sprinklers/internal/sim"
)

// WindowPoint is one window of a run's time series: delay and throughput
// over the window, backlog sampled at the window's end, and the reorder
// count charged to the window (reordering is detected against the whole
// run's per-flow history, so an out-of-order delivery straddling a window
// boundary is still counted). The JSON tags are the trajectory columns the
// experiment checkpoints record; Backlog is a float because replica
// aggregation averages it.
type WindowPoint struct {
	// Window is the 0-based window index.
	Window int `json:"window"`
	// Start and End bound the window's slots: [Start, End).
	Start sim.Slot `json:"start"`
	End   sim.Slot `json:"end"`
	// MeanDelay and P99Delay summarize deliveries inside the window, in
	// slots (0 when nothing was delivered).
	MeanDelay float64 `json:"mean_delay"`
	P99Delay  float64 `json:"p99_delay"`
	// Offered counts measured packets that arrived during the window;
	// Delivered counts measured packets delivered during it. Throughput is
	// Delivered/Offered — above 1 while a backlog drains, the signature of
	// post-event recovery.
	Offered    int64   `json:"offered"`
	Delivered  int64   `json:"delivered"`
	Throughput float64 `json:"throughput"`
	// Backlog is the number of packets buffered in the switch at the end
	// of the window.
	Backlog float64 `json:"backlog"`
	// Reordered counts out-of-order deliveries during the window.
	Reordered int64 `json:"reordered"`
}

// Windowed collects the per-window time series of a run: it observes
// deliveries like any instrument, counts offered packets via WrapSource,
// and closes a window whenever OnSlot crosses a boundary (hook it via
// sim.WithSlotHook). The measured horizon [warmup, warmup+slots) is
// split into the given number of equal windows, with any remainder slots
// absorbed by the last window.
type Windowed struct {
	warmup, slots sim.Slot
	length        sim.Slot
	windows       int

	reorder   *Reorder
	lastReo   int64
	cur       Delay
	offered   int64
	delivered int64
	points    []WindowPoint
}

// NewWindowed builds a windowed collector for an n-port switch whose run
// measures slots slots after warmup, split into windows windows. windows
// must be in [1, slots].
func NewWindowed(n int, warmup, slots sim.Slot, windows int) *Windowed {
	if windows < 1 || sim.Slot(windows) > slots {
		panic("stats: window count must be in [1, slots]")
	}
	return &Windowed{
		warmup:  warmup,
		slots:   slots,
		length:  slots / sim.Slot(windows),
		windows: windows,
		reorder: NewReorder(n),
	}
}

// Observe implements sim.Observer. The runner forwards only measured, real
// deliveries, each landing in the window containing its departure slot.
func (w *Windowed) Observe(d sim.Delivery) {
	w.cur.Add(d.Delay())
	w.delivered++
	w.reorder.Add(d.Packet)
}

// WrapSource returns a source that counts measured arrivals into the
// current window before forwarding them. Arrivals and deliveries of one
// slot land in the same window because windows close only at slot ends.
func (w *Windowed) WrapSource(src sim.Source) sim.Source {
	return &countingSource{src: src, w: w}
}

type countingSource struct {
	src sim.Source
	w   *Windowed
}

func (c *countingSource) N() int { return c.src.N() }

func (c *countingSource) Next(t sim.Slot, emit func(sim.Packet)) {
	c.src.Next(t, func(p sim.Packet) {
		if p.Arrival >= c.w.warmup {
			c.w.offered++
		}
		emit(p)
	})
}

// OnSlot closes the current window when slot t is its last slot, sampling
// backlog at the boundary. Hook it via sim.WithSlotHook with the
// switch's Backlog method as the sampler; warmup slots are ignored. The
// sampler is a thunk because it is only invoked on the handful of slots
// where a window actually closes — Backlog is an O(N) scan on some
// switches, far too expensive to take every slot of a large run.
func (w *Windowed) OnSlot(t sim.Slot, backlog func() int) {
	if t < w.warmup || len(w.points) >= w.windows {
		return
	}
	k := len(w.points)
	end := w.warmup + sim.Slot(k+1)*w.length
	if k == w.windows-1 {
		end = w.warmup + w.slots
	}
	if t+1 < end {
		return
	}
	p := WindowPoint{
		Window:    k,
		Start:     w.warmup + sim.Slot(k)*w.length,
		End:       end,
		MeanDelay: w.cur.Mean(),
		P99Delay:  float64(w.cur.Percentile(99)),
		Offered:   w.offered,
		Delivered: w.delivered,
		Backlog:   float64(backlog()),
		Reordered: w.reorder.Reordered() - w.lastReo,
	}
	if p.Offered > 0 {
		p.Throughput = float64(p.Delivered) / float64(p.Offered)
	}
	w.points = append(w.points, p)
	w.lastReo = w.reorder.Reordered()
	w.cur = Delay{}
	w.offered, w.delivered = 0, 0
}

// Points returns the closed windows, in order.
func (w *Windowed) Points() []WindowPoint { return w.points }

// ReorderDetector exposes the run-level reorder detector the windows are
// charged from, so callers needing whole-run reorder statistics (fraction,
// max gap) do not have to run a second detector over every delivery.
func (w *Windowed) ReorderDetector() *Reorder { return w.reorder }
