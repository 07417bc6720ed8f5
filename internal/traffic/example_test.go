package traffic_test

import (
	"fmt"
	"math/rand"

	"sprinklers/internal/sim"
	"sprinklers/internal/traffic"
)

// ExampleDiagonal builds the paper's diagonal workload: half of each
// input's load aims at the matching output.
func ExampleDiagonal() {
	m := traffic.Diagonal(32, 0.9)
	fmt.Printf("hot VOQ rate %.4f, cold VOQ rate %.4f, row sum %.2f\n",
		m.Rate(5, 5), m.Rate(5, 6), m.RowSum(5))
	// Output:
	// hot VOQ rate 0.4500, cold VOQ rate 0.0145, row sum 0.90
}

// ExampleNewBernoulli drives the i.i.d. arrival process of the paper's
// evaluation for a few slots.
func ExampleNewBernoulli() {
	m := traffic.Uniform(4, 1.0) // every input receives a packet every slot
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(1)))
	count := 0
	for t := sim.Slot(0); t < 10; t++ {
		src.Next(t, func(sim.Packet) { count++ })
	}
	fmt.Println("arrivals over 10 slots at load 1.0:", count)
	// Output:
	// arrivals over 10 slots at load 1.0: 40
}
