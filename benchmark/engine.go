package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/trace"
	"sprinklers/internal/traffic"
)

// sampleEvery is how often a slot's calls become real spans; every slot's
// time is accumulated regardless.
const sampleEvery = 1024

// profile accumulates the time one simulated point spends in each layer.
// The decorators below sit on sim.Run's three seams, so Next contains the
// Arrive calls and Step contains the Observe calls.
type profile struct {
	n int // ports

	plainNs                         int64 // experiment.RunPoint of the same point, undecorated
	patternNs, newNs, runNs         int64
	nextNs, arriveNs, stepNs, obsNs int64
	slots, arrives, observes        int64
	mallocs                         uint64
	liveHeap                        uint64 // bytes held by the switch after the run
	point                           experiment.Point

	run     trace.SpanContext // the sim.Run span: parent of next and step
	inner   trace.SpanContext // the current next or step span
	sampled bool
}

type timedSource struct {
	sim.Source
	p *profile
}

func (s *timedSource) Next(t sim.Slot, emit func(sim.Packet)) {
	p := s.p
	p.sampled = t%sampleEvery == 0
	var sp *trace.Active
	if p.sampled {
		sp = p.run.Start("next")
		p.inner = sp.SpanContext()
	}
	t0 := time.Now()
	s.Source.Next(t, emit)
	p.nextNs += int64(time.Since(t0))
	sp.End()
	p.slots++
}

type timedSwitch struct {
	sim.Switch
	p *profile
}

func (w *timedSwitch) Arrive(pk sim.Packet) {
	var sp *trace.Active
	if w.p.sampled {
		sp = w.p.inner.Start("arrive")
	}
	t0 := time.Now()
	w.Switch.Arrive(pk)
	w.p.arriveNs += int64(time.Since(t0))
	sp.End()
	w.p.arrives++
}

func (w *timedSwitch) Step(deliver sim.DeliverFunc) {
	var sp *trace.Active
	if w.p.sampled {
		sp = w.p.run.Start("step")
		w.p.inner = sp.SpanContext()
	}
	t0 := time.Now()
	w.Switch.Step(deliver)
	w.p.stepNs += int64(time.Since(t0))
	sp.End()
}

// timedParallelSwitch keeps sim.WithParallelism working through the
// decorator: sim.Run asks the switch it was handed, not the one inside.
type timedParallelSwitch struct {
	*timedSwitch
	sim.Parallelizable
}

type timedObserver struct {
	sim.Observer
	p *profile
}

func (o *timedObserver) Observe(d sim.Delivery) {
	var sp *trace.Active
	if o.p.sampled {
		sp = o.p.inner.Start("observe")
	}
	t0 := time.Now()
	o.Observer.Observe(d)
	o.p.obsNs += int64(time.Since(t0))
	sp.End()
	o.p.observes++
}

// profilePoint assembles one point exactly as experiment.RunPoint does —
// Pattern, NewSwitch, traffic.NewBernoulli, sim.Run with Delay and Reorder
// observers, the same three seeds — with the timing decorators in between,
// and checks that the Point it measures equals RunPoint's for the same
// Config. par > 1 runs the slot loop with sim.WithParallelism(par).
func profilePoint(sc trace.SpanContext, alg experiment.Algorithm, cfg experiment.Config, load float64, par int) (*profile, error) {
	t0 := time.Now()
	want, err := experiment.RunPoint(alg, cfg, load)
	plainNs := int64(time.Since(t0))
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	p := &profile{n: cfg.N, plainNs: plainNs}
	psp := sc.Start("point")
	psp.SetJob(fmt.Sprintf("%s %s N=%d load=%g P=%d", alg, cfg.Traffic, cfg.N, load, par), 0)
	sc = psp.SpanContext()

	sp := sc.Start("pattern")
	t0 = time.Now()
	m, err := experiment.PatternOpts(cfg.Traffic, cfg.N, load, rand.New(rand.NewSource(cfg.Seed)), cfg.TrafficOptions)
	p.patternNs = int64(time.Since(t0))
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = sc.Start("new-switch")
	t0 = time.Now()
	sw, err := experiment.NewSwitchOpts(alg, m, cfg.Seed, cfg.AlgOptions)
	p.newNs = int64(time.Since(t0))
	sp.End()
	if err != nil {
		return nil, err
	}
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(cfg.Seed+int64(load*1e6))))
	delay := &stats.Delay{}
	reorder := stats.NewReorder(cfg.N)

	ts := &timedSwitch{Switch: sw, p: p}
	var dsw sim.Switch = ts
	if ps, ok := sw.(sim.Parallelizable); ok {
		dsw = timedParallelSwitch{ts, ps}
	}
	rsp := sc.Start("sim.Run")
	p.run = rsp.SpanContext()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	offered, delivered := sim.Run(dsw, &timedSource{src, p}, &timedObserver{stats.Multi{delay, reorder}, p},
		sim.WithWarmup(cfg.Warmup), sim.WithSlots(cfg.Slots), sim.WithParallelism(par))
	p.runNs = int64(time.Since(t0))
	runtime.ReadMemStats(&m1)
	rsp.End()
	p.mallocs = m1.Mallocs - m0.Mallocs

	// What the switch holds once the garbage is gone: its queues and the
	// cells still buffered in them.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		p.liveHeap = after.HeapAlloc - before.HeapAlloc
	}
	runtime.KeepAlive(sw)
	psp.End()

	p.point = experiment.Point{
		Algorithm: alg, Traffic: cfg.Traffic, N: cfg.N, Load: load,
		MeanDelay: delay.Mean(),
		P99Delay:  float64(delay.Percentile(99)),
		MaxDelay:  float64(delay.Max()),
		Reordered: reorder.Reordered(),
		Delivered: delivered,
	}
	if offered > 0 {
		p.point.Throughput = float64(delivered) / float64(offered)
	}
	if !reflect.DeepEqual(p.point, want) {
		return p, fmt.Errorf("decorated run of %s load %g measured %+v, RunPoint %+v", alg, load, p.point, want)
	}
	return p, nil
}

// clockPairNs measures what one time.Now/time.Since pair costs. A decorated
// call's reading includes about half of it, and its caller's reading all of
// it, so the self times below take it back out.
func clockPairNs() float64 {
	const n = 200_000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	total := time.Since(t0)
	_ = sink
	return float64(total) / n
}

// engineTotals sums profiles so a layer's per-call numbers can be taken
// over every point that exercises it.
type engineTotals struct {
	timerNs                                             float64 // clockPairNs at the time of the pass
	points                                              int
	plainNs, patternNs, newNs, runNs                    float64
	nextNs, arriveNs, stepNs, obsNs                     float64
	slots, arrives, observes, cellSlots, mallocs, liveB float64
}

func (t *engineTotals) add(p *profile) {
	t.points++
	t.plainNs += float64(p.plainNs)
	t.patternNs += float64(p.patternNs)
	t.newNs += float64(p.newNs)
	t.runNs += float64(p.runNs)
	t.nextNs += float64(p.nextNs)
	t.arriveNs += float64(p.arriveNs)
	t.stepNs += float64(p.stepNs)
	t.obsNs += float64(p.obsNs)
	t.slots += float64(p.slots)
	t.arrives += float64(p.arrives)
	t.observes += float64(p.observes)
	t.cellSlots += float64(p.slots) * float64(p.n)
	t.mallocs += float64(p.mallocs)
	t.liveB += float64(p.liveHeap)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Self time is a span minus the spans it contains, minus the clock reads:
// half a pair for the call itself, half a pair for every call it contains.
func (t *engineTotals) arriveSelfNs() float64  { return t.arriveNs - t.arrives*t.timerNs/2 }
func (t *engineTotals) observeSelfNs() float64 { return t.obsNs - t.observes*t.timerNs/2 }
func (t *engineTotals) stepSelfNs() float64 {
	return t.stepNs - t.obsNs - (t.observes+t.slots)*t.timerNs/2
}
func (t *engineTotals) nextSelfNs() float64 {
	return t.nextNs - t.arriveNs - (t.arrives+t.slots)*t.timerNs/2
}

// loopSelfNs is sim.Run's own share: its span minus Next and Step.
func (t *engineTotals) loopSelfNs() float64 {
	return t.runNs - t.nextNs - t.stepNs - 2*t.slots*t.timerNs/2
}

// clockNs is all the time the decorated run spent reading the clock.
func (t *engineTotals) clockNs() float64 {
	return (2*t.slots + t.arrives + t.observes) * t.timerNs
}

// accountedShare is the sum of the layer self times as a share of the
// undecorated run (RunPoint's wall clock less pattern and construction).
// Inside the decorated run the self times and the clock reads add up to the
// sim.Run span by construction, so the honest check is against the run that
// had no decorators: near 1 when the clock-read correction is right.
func (t *engineTotals) accountedShare() float64 {
	sum := t.arriveSelfNs() + t.observeSelfNs() + t.stepSelfNs() + t.nextSelfNs() + t.loopSelfNs()
	return div(sum, t.plainNs-t.patternNs-t.newNs)
}
