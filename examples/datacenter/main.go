// Datacenter: a heavy-tailed aggregation workload — the regime the paper's
// introduction motivates. Each input (think ToR uplink) spreads its load
// over the outputs with Zipf popularity, so every input carries a few
// elephant VOQs and many mice. The example shows:
//
//  1. why TCP hashing is unstable here (an elephant VOQ pins its whole rate
//     on one intermediate port, oversubscribing it), and
//  2. how Sprinklers' rate-proportional stripes give elephants wide
//     intervals and mice narrow ones, so mice keep short accumulation
//     delays instead of paying UFS's full-frame price.
package main

import (
	"fmt"
	"math/rand"

	"sprinklers"
	"sprinklers/internal/dyadic"
	"sprinklers/internal/hashing"
	"sprinklers/internal/stats"
	"sprinklers/internal/ufs"
)

func main() {
	const (
		n     = 32
		load  = 0.9
		slots = 400_000
		seed  = 11
	)
	m := sprinklers.Zipf(n, load, 1.2)

	fmt.Printf("Zipf(1.2) aggregation workload, N=%d, load %.2f\n\n", n, load)

	// Stripe sizing: elephants get wide intervals, mice narrow ones.
	fmt.Println("rate-proportional striping at input 0:")
	for _, k := range []int{0, 1, 4, 16} {
		r := m.Rate(0, k)
		fmt.Printf("  VOQ rank %2d: rate %.4f -> stripe size %2d\n", k, r, dyadic.StripeSize(r, n))
	}
	fmt.Println()

	run := func(name string, sw sprinklers.Switch) {
		src := sprinklers.NewBernoulli(m, rand.New(rand.NewSource(seed)))
		delay := &sprinklers.DelayStats{}
		reorder := stats.NewReorder(n)
		offered, delivered := sprinklers.Run(sw, src, stats.Multi{delay, reorder},
			sprinklers.WithWarmup(slots/5), sprinklers.WithSlots(slots))
		fmt.Printf("%-12s mean delay %8.1f  p99≤%7d  throughput %.4f  backlog %7d  reordered %d\n",
			name, delay.Mean(), delay.Percentile(99),
			float64(delivered)/float64(offered), sw.Backlog(), reorder.Reordered())
	}

	run("sprinklers", sprinklers.MustNew(sprinklers.ConfigFromMatrix(m, seed)))
	run("ufs", ufs.New(n))
	run("tcp-hashing", hashing.New(n, rand.New(rand.NewSource(seed))))

	fmt.Println(`
TCP hashing's backlog explodes: whichever intermediate port drew the elephant
VOQs is oversubscribed, so its queues grow without bound (Sec. 2.1). UFS is
stable but slow for the mice. Sprinklers keeps both properties: stable,
ordered, and with accumulation delay proportional to each VOQ's own rate.`)
}
