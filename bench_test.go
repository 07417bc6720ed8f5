// Benchmarks that regenerate every table and figure of the paper plus
// ablation and extension studies. Each figure benchmark runs the
// corresponding simulation at a fixed horizon and reports the figure's
// y-value (mean packet delay in slots) via ReportMetric, so `go test
// -bench=.` prints the same series the paper plots:
//
//	BenchmarkFig6Uniform/sprinklers/load-0.9    ...  720 delay-slots
//
// The full-horizon, full-grid renderer is `sweep -builtin fig6|fig7|fig5|
// table1`; the benchmarks use a reduced horizon so the whole suite completes
// in minutes.
package sprinklers_test

import (
	"fmt"
	"math/rand"
	"testing"

	"sprinklers/internal/bound"
	"sprinklers/internal/core"
	"sprinklers/internal/dyadic"
	"sprinklers/internal/experiment"
	"sprinklers/internal/markov"
	"sprinklers/internal/pf"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

const (
	benchN     = 32
	benchSlots = 60_000
)

// benchPoint runs one simulation point and reports the figure metrics.
func benchPoint(b *testing.B, alg experiment.Algorithm, kind experiment.TrafficKind, load float64) {
	b.Helper()
	var last experiment.Point
	for i := 0; i < b.N; i++ {
		p, err := experiment.RunPoint(alg, experiment.Config{
			N: benchN, Traffic: kind, Slots: benchSlots, Seed: 1,
		}, load)
		if err != nil {
			b.Fatal(err)
		}
		last = p
	}
	b.ReportMetric(last.MeanDelay, "delay-slots")
	b.ReportMetric(last.Throughput, "throughput")
	b.ReportMetric(float64(last.Reordered), "reordered")
}

// BenchmarkFig6Uniform regenerates Figure 6: average delay under uniform
// traffic at N=32 for the five architectures, across the load axis.
func BenchmarkFig6Uniform(b *testing.B) {
	for _, alg := range experiment.Fig6Algorithms {
		for _, load := range []float64{0.1, 0.5, 0.9} {
			b.Run(fmt.Sprintf("%s/load-%.1f", alg, load), func(b *testing.B) {
				benchPoint(b, alg, experiment.UniformTraffic, load)
			})
		}
	}
}

// BenchmarkFig7Diagonal regenerates Figure 7: the same comparison under the
// diagonal traffic pattern.
func BenchmarkFig7Diagonal(b *testing.B) {
	for _, alg := range experiment.Fig6Algorithms {
		for _, load := range []float64{0.1, 0.5, 0.9} {
			b.Run(fmt.Sprintf("%s/load-%.1f", alg, load), func(b *testing.B) {
				benchPoint(b, alg, experiment.DiagonalTraffic, load)
			})
		}
	}
}

// BenchmarkTable1Bound regenerates Table 1 (all 24 entries) per iteration
// and reports the N=2048, rho=0.93 entry's log10 as a spot check.
func BenchmarkTable1Bound(b *testing.B) {
	var rows []bound.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bound.Table1(bound.PaperTable1Rhos, bound.PaperTable1Ns)
	}
	b.ReportMetric(rows[3].LogPs[1]/2.302585, "log10-p(2048@0.93)")
}

// BenchmarkFig5Markov regenerates Figure 5: the expected intermediate-stage
// delay across the switch-size axis, via the exact stationary solve (the
// closed form is free; the solve is the measured work).
func BenchmarkFig5Markov(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, n := range []int{64, 256, 1024} {
			last = markov.MeanQueueNumeric(n, 0.9)
		}
	}
	b.ReportMetric(last, "delay-cycles(N=1024)")
}

// BenchmarkAblationScheduler compares the order-preserving gated LSF with
// the literal work-conserving row scan of Sec. 3.4.2 — delay is similar but
// the greedy variant reorders massively, which is why gating matters.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, alg := range []experiment.Algorithm{experiment.Sprinklers, experiment.SprinklersGreedy} {
		b.Run(string(alg), func(b *testing.B) {
			benchPoint(b, alg, experiment.UniformTraffic, 0.9)
		})
	}
}

// BenchmarkAblationPFThreshold sweeps the Padded Frames padding threshold,
// exposing the accumulation-versus-waste tradeoff that motivates the
// adaptive threshold.
func BenchmarkAblationPFThreshold(b *testing.B) {
	run := func(b *testing.B, threshold int, load float64) {
		m := traffic.Uniform(benchN, load)
		var mean float64
		for i := 0; i < b.N; i++ {
			sw := pf.New(benchN, threshold)
			src := traffic.NewBernoulli(m, rand.New(rand.NewSource(1)))
			d := &stats.Delay{}
			sim.Run(sw, src, d, sim.WithWarmup(benchSlots/5), sim.WithSlots(benchSlots))
			mean = d.Mean()
		}
		b.ReportMetric(mean, "delay-slots")
	}
	for _, threshold := range []int{4, 8, 16, 24} {
		for _, load := range []float64{0.3, 0.9} {
			b.Run(fmt.Sprintf("T-%d/load-%.1f", threshold, load), func(b *testing.B) {
				run(b, threshold, load)
			})
		}
	}
	for _, load := range []float64{0.3, 0.9} {
		b.Run(fmt.Sprintf("T-adaptive/load-%.1f", load), func(b *testing.B) {
			run(b, pf.AdaptiveThreshold, load)
		})
	}
}

// BenchmarkAblationStripeSizing compares the paper's rate-proportional
// sizing rule against fixed stripe sizes (size 1 = TCP-hashing-like narrow
// paths; size N = UFS-like full frames) under a heavy-tailed workload where
// the VOQ rates genuinely differ.
func BenchmarkAblationStripeSizing(b *testing.B) {
	m := traffic.Zipf(benchN, 0.9, 1.2)
	rates := m.Rows()
	run := func(b *testing.B, cfg core.Config) {
		var mean, tput float64
		for i := 0; i < b.N; i++ {
			cfg.Rand = rand.New(rand.NewSource(2))
			sw := core.MustNew(cfg)
			src := traffic.NewBernoulli(m, rand.New(rand.NewSource(3)))
			d := &stats.Delay{}
			offered, delivered := sim.Run(sw, src, d,
				sim.WithWarmup(benchSlots/5), sim.WithSlots(benchSlots))
			mean = d.Mean()
			tput = float64(delivered) / float64(offered)
		}
		b.ReportMetric(mean, "delay-slots")
		b.ReportMetric(tput, "throughput")
	}
	b.Run("proportional", func(b *testing.B) {
		run(b, core.Config{N: benchN, Rates: rates})
	})
	b.Run("fixed-1", func(b *testing.B) {
		run(b, core.Config{N: benchN, DefaultStripeSize: 1})
	})
	b.Run("fixed-N", func(b *testing.B) {
		run(b, core.Config{N: benchN, DefaultStripeSize: benchN})
	})
}

// BenchmarkAblationPlacement demonstrates why the Orthogonal Latin Square
// coordination of Sec. 3.3.3 matters: with independent per-input
// permutations, VOQs destined to one output collide on primary ports and
// the output side of the switch loses balance. Under diagonal traffic at
// high load the collision shows up as throughput loss and growing backlog.
func BenchmarkAblationPlacement(b *testing.B) {
	m := traffic.Diagonal(benchN, 0.95)
	rates := m.Rows()
	for _, placement := range []core.Placement{core.PlacementOLS, core.PlacementIndependent} {
		b.Run(placement.String(), func(b *testing.B) {
			var tput, backlog float64
			for i := 0; i < b.N; i++ {
				sw := core.MustNew(core.Config{
					N: benchN, Rates: rates,
					Placement: placement,
					Rand:      rand.New(rand.NewSource(7)),
				})
				src := traffic.NewBernoulli(m, rand.New(rand.NewSource(8)))
				offered, delivered := sim.Run(sw, src, nil,
					sim.WithWarmup(benchSlots/5), sim.WithSlots(benchSlots))
				tput = float64(delivered) / float64(offered)
				backlog = float64(sw.Backlog())
			}
			b.ReportMetric(tput, "throughput")
			b.ReportMetric(backlog, "backlog-pkts")
		})
	}
}

// BenchmarkExtensionSizeSweep measures how Sprinklers' delay scales with
// switch size at fixed load, an extension of the paper's evaluation (its
// simulations fix N=32; Sec. 5 predicts O(N) scaling of the cycle-bound
// delay components).
func BenchmarkExtensionSizeSweep(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("N-%d", n), func(b *testing.B) {
			var last experiment.Point
			for i := 0; i < b.N; i++ {
				p, err := experiment.RunPoint(experiment.Sprinklers, experiment.Config{
					N: n, Traffic: experiment.UniformTraffic, Slots: benchSlots, Seed: 1,
				}, 0.9)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			b.ReportMetric(last.MeanDelay, "delay-slots")
			b.ReportMetric(last.MeanDelay/float64(n), "delay-per-N")
		})
	}
}

// BenchmarkExtensionBurstiness measures Sprinklers' delay sensitivity to
// arrival burstiness at fixed load: on/off sources with growing mean burst
// length versus the paper's Bernoulli process (burst 1). Stripe accumulation
// actually benefits from bursts (ready queues fill faster) while queueing
// suffers, so the net effect is an informative extension measurement.
func BenchmarkExtensionBurstiness(b *testing.B) {
	m := traffic.Uniform(benchN, 0.8)
	rates := m.Rows()
	run := func(b *testing.B, burst float64) {
		var mean float64
		var reordered int64
		for i := 0; i < b.N; i++ {
			sw := core.MustNew(core.Config{N: benchN, Rates: rates,
				Rand: rand.New(rand.NewSource(9))})
			var src sim.Source
			if burst <= 1 {
				src = traffic.NewBernoulli(m, rand.New(rand.NewSource(10)))
			} else {
				src = traffic.NewOnOff(m, burst, rand.New(rand.NewSource(10)))
			}
			d := &stats.Delay{}
			r := stats.NewReorder(benchN)
			sim.Run(sw, src, stats.Multi{d, r},
				sim.WithWarmup(benchSlots/5), sim.WithSlots(benchSlots))
			mean = d.Mean()
			reordered = r.Reordered()
		}
		b.ReportMetric(mean, "delay-slots")
		b.ReportMetric(float64(reordered), "reordered")
	}
	for _, burst := range []float64{1, 8, 32} {
		b.Run(fmt.Sprintf("burst-%.0f", burst), func(b *testing.B) { run(b, burst) })
	}
}

// steppedSwitch is a switch/source pair already driven past its warmup
// transient, ready for steady-state step measurement.
type steppedSwitch struct {
	sw  sim.Switch
	src sim.Source
}

// stepBenchCache memoizes warmed-up switches per (algorithm, size) so the
// benchmark framework's iteration-count escalations (which re-invoke the
// benchmark function) do not repeat the warmup; the simulation simply keeps
// advancing from wherever the previous escalation left it, which is exactly
// the steady state being measured.
var stepBenchCache = map[string]steppedSwitch{}

// steadySwitch builds the switch/source pair with build and steps it through
// warmup slots, so ring buffers, slab banks and chunk pools have grown to
// their working-set capacities before measurement starts.
func steadySwitch(b *testing.B, key string, warmup int, build func() (sim.Switch, sim.Source)) steppedSwitch {
	b.Helper()
	if s, ok := stepBenchCache[key]; ok {
		return s
	}
	sw, src := build()
	arrive := sw.Arrive
	for i := 0; i < warmup; i++ {
		src.Next(sw.Now(), arrive)
		sw.Step(nil)
	}
	s := steppedSwitch{sw: sw, src: src}
	stepBenchCache[key] = s
	return s
}

// largeSprinklers builds an n-port gated Sprinklers switch for the step
// benchmarks: uniform Bernoulli traffic at load 0.9 with explicit size-1
// stripes. Eq. 1 sizing is deliberately NOT used here: at load 0.9 it
// assigns every VOQ a stripe of size N, whose accumulation working set is
// ~0.45*N^2 packets reached only after ~N^2/2 slots — at N=1024 that is
// tens of gigabytes and a million-slot transient, so a benchmark horizon
// only ever measures VOQ growth, not switching. Size-1 stripes give the
// same per-slot machinery (fabric sweeps, LSF scans, center-stage arena) a
// steady state that is reached within ~10N slots and must then be
// allocation-free. The full Eq. 1 accumulation regime is covered by
// BenchmarkSwitchStep at N=32, where it converges, and by
// BenchmarkStripedSwitchStep at N=128.
func largeSprinklers(n int) (sim.Switch, sim.Source) {
	sw := core.MustNew(core.Config{
		N:                 n,
		DefaultStripeSize: 1,
		Rand:              rand.New(rand.NewSource(1)),
	})
	m := traffic.Uniform(n, 0.9)
	return sw, traffic.NewBernoulli(m, rand.New(rand.NewSource(1)))
}

// stepLoop drives one slot per benchmark iteration. The arrive callback is
// bound once outside the loop — rebinding sw.Arrive per slot would itself
// heap-allocate a method value and mask the switch's own allocation story.
func stepLoop(b *testing.B, s steppedSwitch) {
	b.Helper()
	arrive := s.sw.Arrive
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.src.Next(s.sw.Now(), arrive)
		s.sw.Step(nil)
	}
}

// uniformPoint returns a steadySwitch builder for alg at n ports under
// uniform Bernoulli traffic at load 0.9, sized the way a study sizes it
// (Eq. 1 stripes for the Sprinklers variants).
func uniformPoint(b *testing.B, alg experiment.Algorithm, n int) func() (sim.Switch, sim.Source) {
	return matrixPoint(b, alg, traffic.Uniform(n, 0.9))
}

// matrixPoint is uniformPoint for any rate matrix.
func matrixPoint(b *testing.B, alg experiment.Algorithm, m *traffic.Matrix) func() (sim.Switch, sim.Source) {
	return func() (sim.Switch, sim.Source) {
		sw, err := experiment.NewSwitch(alg, m, 1)
		if err != nil {
			b.Fatal(err)
		}
		return sw, traffic.NewBernoulli(m, rand.New(rand.NewSource(1)))
	}
}

// BenchmarkSwitchStep measures raw simulation speed: slots per second for
// each architecture at N=32, load 0.9 (the cost of one Step includes both
// fabrics and all ports).
func BenchmarkSwitchStep(b *testing.B) {
	for _, alg := range experiment.AllAlgorithms() {
		b.Run(string(alg), func(b *testing.B) {
			stepLoop(b, steadySwitch(b, string(alg), 4096, uniformPoint(b, alg, benchN)))
		})
	}
}

// BenchmarkLargeSwitchStep checks that a 1024-port Sprinklers switch still
// steps fast (scalability of the constant-time per-port algorithms) and,
// with the pooled/arena-backed hot path, allocation-free in steady state.
func BenchmarkLargeSwitchStep(b *testing.B) {
	const n = 1024
	stepLoop(b, steadySwitch(b, "large-1024", 12*n, func() (sim.Switch, sim.Source) {
		return largeSprinklers(n)
	}))
}

// BenchmarkStripedSwitchStep is the step cost in the regime the
// sprinklers-n128 benchmark workload runs and no other step benchmark above
// N=32 reaches, on the workload's two matrices. Uniform: Eq. 1 sizing at
// load 0.9 gives all N^2 VOQs stripes of size N, so every packet is buffered
// in its VOQ's chunk queue, waits there for N-1 companions, is served
// through a stripe descriptor and crosses the center stage in a block of N
// records. Diagonal: the N diagonal VOQs carry half the load in stripes of
// N, the other N^2-N share the rest in stripes of N/2 (58 packets per N^2
// slots each; Eq. 1 gives a single only below one), so every output's grid
// interleaves blocks of two sizes from two free lists and a whole-row stripe
// must wait for the half-row stripes that started before it. The 20 000-slot
// warm-up is the workload's own: just past the first accumulation cycle
// (N^2/0.9 = 18 204 slots), where the chunk pools and the center-stage slabs
// reach their high-water marks.
func BenchmarkStripedSwitchStep(b *testing.B) {
	for _, m := range []struct {
		name string
		m    *traffic.Matrix
	}{
		{"uniform", traffic.Uniform(128, 0.9)},
		{"diagonal", traffic.Diagonal(128, 0.9)},
	} {
		b.Run(m.name, func(b *testing.B) {
			stepLoop(b, steadySwitch(b, "striped-128-"+m.name, 20_000, matrixPoint(b, experiment.Sprinklers, m.m)))
		})
	}
}

// BenchmarkSizeSweepStep tracks per-slot stepping cost and allocation count
// across switch sizes, so the perf trajectory of the simulator itself (not
// the simulated delay) is visible from one benchtable. Each size warms up
// past its FIFO-growth transient before measurement; in steady state every
// size must report 0 allocs/op. The N=4096 point allocates a multi-gigabyte
// center-stage arena — run it on a machine with memory to spare.
func BenchmarkSizeSweepStep(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("N-%d", n), func(b *testing.B) {
			n := n
			stepLoop(b, steadySwitch(b, fmt.Sprintf("large-%d", n), 12*n, func() (sim.Switch, sim.Source) {
				return largeSprinklers(n)
			}))
		})
	}
}

// BenchmarkBaselineSizeSweepStep is the size sweep for the baselines whose
// input side picks among N VOQs: per-slot cost of FOFF, UFS and PF at
// uniform load 0.9 across N, so an O(N)-per-input scan creeping back into a
// scheduler (O(N^2) per slot) shows up as a curve that bends instead of a
// profile someone has to think of taking. After 12N slots of warm-up UFS at
// N >= 128 is still accumulating its first frames (they fill after ~N^2
// slots), which is the regime where every input is idle and asks for a pick
// every slot, and where N-512 buffers every arrival for the length of the
// run: give it a fixed -benchtime such as 5000x. CI's "Benchmark smoke"
// step runs the N-32 and N-128 cases with its regex unchanged; stepLoop
// calls b.ReportAllocs, so B/op — the inputs' record chunks, the
// center-stage slab and FOFF's resequencer windows still finding their
// high-water marks this soon after warm-up — is printed beside ns/op.
func BenchmarkBaselineSizeSweepStep(b *testing.B) {
	for _, alg := range []experiment.Algorithm{experiment.FOFF, experiment.UFS, experiment.PF} {
		for _, n := range []int{32, 128, 512} {
			b.Run(fmt.Sprintf("%s/N-%d", alg, n), func(b *testing.B) {
				stepLoop(b, steadySwitch(b, fmt.Sprintf("%s-%d", alg, n), 12*n, uniformPoint(b, alg, n)))
			})
		}
	}
}

// BenchmarkStripeSizing measures the sizing rule itself.
func BenchmarkStripeSizing(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	rates := make([]float64, 1024)
	for i := range rates {
		rates[i] = rng.Float64() / 32
	}
	b.ResetTimer()
	var acc int
	for i := 0; i < b.N; i++ {
		acc += dyadic.StripeSize(rates[i%len(rates)], 4096)
	}
	_ = acc
}

// BenchmarkBoundEval measures one Table 1 entry evaluation.
func BenchmarkBoundEval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bound.LogQueueOverload(2048, 0.93)
	}
}

// BenchmarkFIFO measures the core queue primitive.
func BenchmarkFIFO(b *testing.B) {
	var q queue.FIFO[sim.Packet]
	for i := 0; i < b.N; i++ {
		q.Push(sim.Packet{Seq: uint64(i)})
		if q.Len() > 64 {
			q.Pop()
		}
	}
}

// BenchmarkBernoulliSource measures arrival generation at N=1024.
func BenchmarkBernoulliSource(b *testing.B) {
	m := traffic.Uniform(1024, 0.9)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(5)))
	sink := func(sim.Packet) {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next(sim.Slot(i), sink)
	}
}
