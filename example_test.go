package sprinklers_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"sprinklers"
	"sprinklers/internal/baseline"
	"sprinklers/internal/dyadic"
	"sprinklers/internal/experiment"
	"sprinklers/internal/hashing"
	"sprinklers/internal/registry"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
	"sprinklers/internal/ufs"
)

// Example is the tour of the public API: build a Sprinklers switch for the
// paper's diagonal workload, look at the stripe intervals Eq. 1 gave input
// 0's VOQs, push Bernoulli traffic through it and read back the delay and
// where it goes.
func Example() {
	const (
		n    = 32  // ports (must be a power of two)
		load = 0.8 // per-input offered load
		seed = 1
	)

	// The paper's diagonal workload: half of each input's load goes to the
	// matching output, the rest is spread evenly — so each input has one
	// big VOQ and N-1 small ones, and stripe sizes genuinely vary.
	m := sprinklers.Diagonal(n, load)

	// Stripe sizes follow F(r) = min(N, 2^ceil(log2 r N^2)) and placements
	// come from a random Orthogonal Latin Square.
	sw := sprinklers.MustNew(sprinklers.ConfigFromMatrix(m, seed))
	fmt.Println("stripe intervals at input port 0 (1-based, as in the paper):")
	for j := 0; j < 4; j++ {
		iv := sw.StripeInterval(0, j)
		fmt.Printf("  VOQ ->%2d : primary port %2d, stripe size %2d, interval %v\n",
			j, sw.PrimaryPort(0, j)+1, iv.Size, iv)
	}

	// RunBernoulli panics if the switch ever reorders a packet, so
	// finishing is itself a property check.
	delay := sprinklers.RunBernoulli(sw, m, 20_000, seed)
	fmt.Printf("%d packets delivered, all in order\n", delay.Count())
	fmt.Printf("delay: mean %.1f  p50≤%d  p99≤%d  max %d slots\n",
		delay.Mean(), delay.Percentile(50), delay.Percentile(99), delay.Max())

	// Where that delay goes: waiting for a stripe to fill (Eq. 1's target)
	// versus crossing the switch once it has.
	b := sw.DelayBreakdown()
	fmt.Printf("breakdown: accumulation %.1f + transit %.1f slots\n", b.Accumulation, b.Transit)
	// Output:
	// stripe intervals at input port 0 (1-based, as in the paper):
	//   VOQ -> 0 : primary port 28, stripe size 32, interval (0,32]
	//   VOQ -> 1 : primary port 23, stripe size 16, interval (16,32]
	//   VOQ -> 2 : primary port 19, stripe size 16, interval (16,32]
	//   VOQ -> 3 : primary port 29, stripe size 16, interval (16,32]
	// 500980 packets delivered, all in order
	// delay: mean 400.5  p50≤255  p99≤2047  max 2887 slots
	// breakdown: accumulation 306.2 + transit 99.5 slots
}

// ExampleConfigFromMatrix shows how the stripe sizing rule of Eq. 1 turns
// VOQ rates into dyadic stripe intervals.
func ExampleConfigFromMatrix() {
	m := sprinklers.Diagonal(16, 0.6)
	sw := sprinklers.MustNew(sprinklers.ConfigFromMatrix(m, 42))
	// The diagonal VOQ carries half the input's load; the others split the
	// rest. Rate-proportional sizing gives the hot VOQ a wide stripe.
	hot := sw.StripeInterval(3, 3)
	cold := sw.StripeInterval(3, 4)
	fmt.Println("hot VOQ stripe size: ", hot.Size)
	fmt.Println("cold VOQ stripe size:", cold.Size)
	// Output:
	// hot VOQ stripe size:  16
	// cold VOQ stripe size: 8
}

// ExampleQueueOverloadBound evaluates the paper's Table 1 at one point.
func ExampleQueueOverloadBound() {
	p := sprinklers.QueueOverloadBound(2048, 0.93)
	fmt.Printf("P(queue overload) <= %.2e\n", p)
	// Output:
	// P(queue overload) <= 3.09e-18
}

// ExampleExpectedIntermediateDelay evaluates the Figure 5 closed form.
func ExampleExpectedIntermediateDelay() {
	fmt.Printf("%.1f cycles\n", sprinklers.ExpectedIntermediateDelay(1000, 0.9))
	// Output:
	// 4495.5 cycles
}

// ExampleRun shows the manual simulation loop for callers that need custom
// sources or observers — here, bursty on/off arrivals and a reorder check.
func ExampleRun() {
	m := sprinklers.Uniform(8, 0.4)
	sw := sprinklers.MustNew(sprinklers.ConfigFromMatrix(m, 3))
	src := traffic.NewOnOff(m, 16, rand.New(rand.NewSource(4)))
	delay := &sprinklers.DelayStats{}
	reorder := stats.NewReorder(8)
	sprinklers.Run(sw, src, stats.Multi{delay, reorder},
		sprinklers.WithWarmup(5_000), sprinklers.WithSlots(30_000))
	fmt.Println("reordered:", reorder.Reordered())
	// Output:
	// reordered: 0
}

// Example_ordering shows the packet reordering problem that motivates the
// paper. The baseline load-balanced switch spreads consecutive packets of
// a flow across all intermediate ports and delivers them out of order —
// what triggers spurious TCP fast retransmits — while Sprinklers, at
// essentially the same architecture cost, delivers every flow in order: it
// pins each VOQ to one dyadic stripe interval and serves stripes
// atomically.
func Example_ordering() {
	const (
		n     = 32
		load  = 0.85
		slots = 20_000
		seed  = 7
	)
	m := sprinklers.Diagonal(n, load)
	run := func(name string, sw sprinklers.Switch) {
		src := sprinklers.NewBernoulli(m, rand.New(rand.NewSource(seed)))
		delay := &sprinklers.DelayStats{}
		reorder := stats.NewReorder(n)
		sprinklers.Run(sw, src, stats.Multi{delay, reorder},
			sprinklers.WithWarmup(slots/5), sprinklers.WithSlots(slots))
		fmt.Printf("%-14s mean delay %6.1f  reordered %6d / %6d (%.2f%%)  max seq gap %d\n",
			name, delay.Mean(), reorder.Reordered(), reorder.Total(),
			100*reorder.Fraction(), reorder.MaxGap())
	}
	run("load-balanced", baseline.New(n))
	run("sprinklers", sprinklers.MustNew(sprinklers.ConfigFromMatrix(m, seed)))
	// Output:
	// load-balanced  mean delay   90.8  reordered 240154 / 540961 (44.39%)  max seq gap 316
	// sprinklers     mean delay  394.3  reordered      0 / 532524 (0.00%)  max seq gap 0
}

// Example_adaptive shows stripe resizing under a traffic shift (Secs.
// 3.3.2 and 5). The switch starts with no knowledge of the workload,
// measures VOQ rates online and resizes stripe intervals, waiting out the
// clearance phase so that stripes of different sizes never coexist in
// flight. Light uniform traffic gives way to a phase in which input 0
// aims 0.6 at output 5, then returns; VOQ (0,5)'s stripe grows and
// shrinks, and no packet is reordered across the resizes.
func Example_adaptive() {
	const (
		n     = 16
		seed  = 3
		phase = 40_000
	)
	light := sprinklers.Uniform(n, 0.2)
	hot := light.Rows()
	hot[0][5] = 0.6
	src := traffic.NewDynamic(light, []registry.Event{
		{At: phase, Rates: hot},
		{At: 2 * phase, Rates: light.Rows()},
	}, 0, rand.New(rand.NewSource(seed)))

	sw := sprinklers.MustNew(sprinklers.Config{
		N:    n,
		Rand: rand.New(rand.NewSource(seed)),
		// No Rates: the switch must discover them.
		Adaptive: &sprinklers.AdaptiveConfig{Window: 2048, HoldWindows: 2},
	})
	delay := &sprinklers.DelayStats{}
	reorder := stats.NewReorder(n)
	deliver := func(d sprinklers.Delivery) {
		delay.Observe(d)
		reorder.Observe(d)
	}
	for t := sprinklers.Slot(0); t < 3*phase; t++ {
		src.Next(t, sw.Arrive)
		sw.Step(deliver)
		if (t+1)%phase == 0 {
			fmt.Printf("end of phase %d: VOQ(0,5) est. rate %.4f, stripe size %2d, resizes so far %d\n",
				(t+1)/phase, sw.EstimatedRate(0, 5), sw.StripeSizeOf(0, 5), sw.Resizes())
		}
	}
	fmt.Printf("delivered %d packets, mean delay %.1f slots, reordered %d\n",
		delay.Count(), delay.Mean(), reorder.Reordered())
	// Output:
	// end of phase 1: VOQ(0,5) est. rate 0.0116, stripe size  4, resizes so far 422
	// end of phase 2: VOQ(0,5) est. rate 0.5986, stripe size 16, resizes so far 426
	// end of phase 3: VOQ(0,5) est. rate 0.0117, stripe size  4, resizes so far 429
	// delivered 407643 packets, mean delay 252.0 slots, reordered 0
}

// Example_datacenter runs a heavy-tailed aggregation workload, the regime
// the paper's introduction motivates: each input (think ToR uplink)
// spreads its load over the outputs with Zipf popularity, so every input
// carries a few elephant VOQs and many mice. Sprinklers' rate-proportional
// stripes give elephants wide intervals and mice narrow ones. TCP hashing
// pins an elephant's whole rate on one intermediate port, whose queue then
// grows without bound (Sec. 2.1); UFS is stable but makes the mice pay
// full-frame accumulation.
func Example_datacenter() {
	const (
		n     = 32
		load  = 0.9
		slots = 20_000
		seed  = 11
	)
	m := sprinklers.Zipf(n, load, 1.2)
	fmt.Println("rate-proportional striping at input 0:")
	for _, k := range []int{0, 1, 4, 16} {
		r := m.Rate(0, k)
		fmt.Printf("  VOQ rank %2d: rate %.4f -> stripe size %2d\n", k, r, dyadic.StripeSize(r, n))
	}

	run := func(name string, sw sprinklers.Switch) {
		src := sprinklers.NewBernoulli(m, rand.New(rand.NewSource(seed)))
		delay := &sprinklers.DelayStats{}
		reorder := stats.NewReorder(n)
		offered, delivered := sprinklers.Run(sw, src, stats.Multi{delay, reorder},
			sprinklers.WithWarmup(slots/5), sprinklers.WithSlots(slots))
		fmt.Printf("%-12s mean delay %7.1f  p99≤%6d  throughput %.4f  backlog %6d  reordered %d\n",
			name, delay.Mean(), delay.Percentile(99),
			float64(delivered)/float64(offered), sw.Backlog(), reorder.Reordered())
	}
	run("sprinklers", sprinklers.MustNew(sprinklers.ConfigFromMatrix(m, seed)))
	run("ufs", ufs.New(n))
	run("tcp-hashing", hashing.New(n, rand.New(rand.NewSource(seed))))
	// Output:
	// rate-proportional striping at input 0:
	//   VOQ rank  0: rate 0.2904 -> stripe size 32
	//   VOQ rank  1: rate 0.1264 -> stripe size 32
	//   VOQ rank  4: rate 0.0421 -> stripe size 32
	//   VOQ rank 16: rate 0.0097 -> stripe size 16
	// sprinklers   mean delay   443.6  p99≤  4095  throughput 0.9772  backlog  13151  reordered 0
	// ufs          mean delay   742.7  p99≤  8191  throughput 0.9607  backlog  22605  reordered 0
	// tcp-hashing  mean delay  3262.2  p99≤ 19927  throughput 0.2932  backlog 427939  reordered 0
}

// Example_study runs the declarative experiment engine: a Spec describes a
// whole grid (algorithms × traffic × loads × sizes) with several
// independently seeded replicas per point, and RunStudy shards the
// (point, replica) jobs across a worker pool and aggregates each point into
// a mean delay with a Student-t 95% confidence interval over the replica
// means. The same Spec serializes to JSON; cmd/sweep runs it with -out as
// a checkpointed, resumable study.
func Example_study() {
	spec := experiment.Spec{
		Name:       "example-study",
		Algorithms: experiment.Algs(experiment.Sprinklers, experiment.FOFF),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      []float64{0.3, 0.6, 0.9},
		Sizes:      []int{16},
		Replicas:   5, // five seeds per point -> error bars
		Slots:      3_000,
		Seed:       1,
	}
	var done, total int
	results, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{
		Progress: func(d, t int, _ experiment.PointResult) { done, total = d, t },
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%d/%d points; mean delay (slots) ± 95%% CI over 5 replicas\n", done, total)
	experiment.RenderStudyCurves(os.Stdout, results)
	// Output:
	// 6/6 points; mean delay (slots) ± 95% CI over 5 replicas
	// load         sprinklers             foff
	// ----------------------------------------
	// 0.30          202.6±1.5         23.8±0.3
	// 0.60          233.4±1.2         48.2±1.2
	// 0.90          197.7±0.6        115.5±2.7
}
