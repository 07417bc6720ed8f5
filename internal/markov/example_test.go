package markov_test

import (
	"fmt"

	"sprinklers/internal/markov"
)

// ExampleMeanQueueClosedForm evaluates the right edge of the paper's
// Figure 5: a 1000-port switch at 90% load clears its intermediate-stage
// backlog in about 4500 cycles.
func ExampleMeanQueueClosedForm() {
	fmt.Printf("%.1f cycles\n", markov.MeanQueueClosedForm(1000, 0.9))
	// Output:
	// 4495.5 cycles
}

// ExampleMeanQueueClosedForm_fig5 evaluates a slice of the Figure 5 series.
func ExampleMeanQueueClosedForm_fig5() {
	for _, n := range []int{64, 256, 1024} {
		fmt.Printf("N=%-5d delay=%.1f\n", n, markov.MeanQueueClosedForm(n, 0.9))
	}
	// Output:
	// N=64    delay=283.5
	// N=256   delay=1147.5
	// N=1024  delay=4603.5
}
