package sim

import "context"

// Source generates packet arrivals. Implementations live in internal/traffic;
// the interface is defined here so that the engine does not depend on any
// concrete workload.
type Source interface {
	// N returns the port count the source was built for.
	N() int
	// Next generates the arrivals for slot t, invoking emit once per
	// packet. At most one packet may arrive per input port per slot
	// (every port runs at speed 1), and each (In, Out) flow's packets
	// carry Seq 0, 1, 2 … in emission order (Packet.Seq).
	Next(t Slot, emit func(Packet))
}

// Observer receives every delivery during a run. Implementations live in
// internal/stats.
type Observer interface {
	Observe(Delivery)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Delivery)

// Observe implements Observer.
func (f ObserverFunc) Observe(d Delivery) { f(d) }

// Parallelizable has no implementer; it stays until the benchmark change
// that deletes timedParallelSwitch, which embeds it.
type Parallelizable interface {
	Parallelism() int
}

// Option configures a Run. The zero configuration runs zero slots, so
// every call passes at least WithSlots.
type Option func(*runOptions)

type runOptions struct {
	warmup Slot
	slots  Slot
	hook   func(Slot)
	cancel <-chan struct{}
}

// WithWarmup discards the deliveries of packets that arrived during the
// first w slots: the observer and the returned counts cover the steady
// state only. The warmup slots are executed in addition to WithSlots.
func WithWarmup(w Slot) Option { return func(o *runOptions) { o.warmup = w } }

// WithSlots sets the number of measured slots executed after the warmup.
func WithSlots(s Slot) Option { return func(o *runOptions) { o.slots = s } }

// WithSlotHook invokes f once per slot after the switch's Step completes
// (warmup slots included), with the slot just executed. The windowed
// time-series instruments hook it to close measurement windows and sample
// backlog at window boundaries; the fault injector hooks it to schedule
// crashes.
func WithSlotHook(f func(Slot)) Option { return func(o *runOptions) { o.hook = f } }

// WithContext makes Run return early — with the counts accumulated so far
// — once ctx is done. The context is polled every cancelCheckSlots slots,
// keeping the per-slot hot path free of channel operations, so
// cancellation latency is bounded by cancelCheckSlots slot executions.
// Callers distinguish a canceled run from a finished one by checking their
// context, not the returned counts.
func WithContext(ctx context.Context) Option {
	return func(o *runOptions) { o.cancel = ctx.Done() }
}

// WithParallelism sets nothing; it stays until the benchmark change that
// deletes the core.p2_speedup pass, which passes it.
func WithParallelism(int) Option { return func(*runOptions) {} }

// cancelCheckSlots is how often Run polls the context's Done channel. At ~1µs/slot
// for a large switch this bounds cancellation latency to a few
// milliseconds while costing one predictable branch per slot.
const cancelCheckSlots = 1024

// Run drives sw with arrivals from src for warmup+slots slots (see
// WithWarmup and WithSlots). Deliveries of packets that arrived after the
// warmup are forwarded to obs (which may be nil). It returns the number of
// measured packets offered and delivered, so callers can reason about
// residual backlog.
func Run(sw Switch, src Source, obs Observer, opts ...Option) (offered, delivered int64) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if sw.N() != src.N() {
		panic("sim: switch and source port counts differ")
	}
	total := o.warmup + o.slots
	// Both per-slot callbacks are constructed once, outside the slot loop,
	// so the hot loop hands the switch the same closure values every slot
	// instead of materializing fresh ones per slot. deliver is specialized
	// on whether an observer is attached: with one it calls Observe
	// directly, without one the per-delivery observer branch disappears.
	var deliver DeliverFunc
	if obs != nil {
		deliver = func(d Delivery) {
			if d.Packet.Arrival < o.warmup {
				return
			}
			delivered++
			obs.Observe(d)
		}
	} else {
		deliver = func(d Delivery) {
			if d.Packet.Arrival < o.warmup {
				return
			}
			delivered++
		}
	}
	arrive := func(p Packet) {
		if p.Arrival >= o.warmup {
			offered++
		}
		sw.Arrive(p)
	}
	for t := Slot(0); t < total; t++ {
		if o.cancel != nil && t%cancelCheckSlots == 0 {
			select {
			case <-o.cancel:
				return offered, delivered
			default:
			}
		}
		src.Next(t, arrive)
		sw.Step(deliver)
		if o.hook != nil {
			o.hook(t)
		}
	}
	return offered, delivered
}
