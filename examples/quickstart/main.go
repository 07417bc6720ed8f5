// Quickstart: build a Sprinklers switch, push traffic through it, and read
// back delay statistics — the five-minute tour of the public API.
package main

import (
	"fmt"

	"sprinklers"
)

func main() {
	const (
		n    = 32  // ports (must be a power of two)
		load = 0.8 // per-input offered load
		seed = 1
	)

	// The paper's diagonal workload: half of each input's load goes to the
	// matching output, the rest is spread evenly — so each input has one
	// big VOQ and N-1 small ones, and stripe sizes genuinely vary.
	m := sprinklers.Diagonal(n, load)

	// A Sprinklers switch sized for that workload: stripe sizes follow
	// F(r) = min(N, 2^ceil(log2 r N^2)) and placements come from a random
	// Orthogonal Latin Square.
	sw := sprinklers.MustNew(sprinklers.ConfigFromMatrix(m, seed))

	// Every VOQ got a dyadic stripe interval. Look at input 0's first few.
	fmt.Println("stripe intervals at input port 0 (1-based, as in the paper):")
	for j := 0; j < 4; j++ {
		iv := sw.StripeInterval(0, j)
		fmt.Printf("  VOQ ->%2d : primary port %2d, stripe size %2d, interval %v\n",
			j, sw.PrimaryPort(0, j)+1, iv.Size, iv)
	}

	// Run 200k slots of Bernoulli arrivals. RunBernoulli panics if the
	// switch ever reorders a packet, so finishing is itself a property
	// check.
	delay := sprinklers.RunBernoulli(sw, m, 200_000, seed)

	fmt.Printf("\n%d packets delivered, all in order\n", delay.Count())
	fmt.Printf("delay: mean %.1f  p50≤%d  p99≤%d  max %d slots\n",
		delay.Mean(), delay.Percentile(50), delay.Percentile(99), delay.Max())

	// Where that delay goes: waiting for a stripe to fill (Eq. 1's target)
	// versus crossing the switch once it has.
	b := sw.DelayBreakdown()
	fmt.Printf("breakdown: accumulation %.1f + transit %.1f slots (stripe fill vs switch)\n",
		b.Accumulation, b.Transit)
}
