// Package markov implements the Sec. 5 analysis of the expected queue
// length at the intermediate stage, which the paper uses both as a delay
// component and as the expected duration of the clearance phase before a
// stripe resize. `sweep -builtin fig5` renders Figure 5 from it.
//
// The model: one intermediate-stage queue is served at one packet per cycle
// (a cycle is N slots). To maximize burstiness at a given load rho, the
// arrival in each cycle is N packets with probability rho/N and 0 otherwise.
// The end-of-cycle queue length is then the Markov chain
//
//	Q' = max(Q + A - 1, 0),  A in {0, N},  P(A = N) = rho/N,
//
// i.e. transitions i -> i+N-1 w.p. rho/N and i -> max(i-1, 0) otherwise.
// (The transition labels in the paper's text have the two probabilities
// swapped, which would make the chain transient for rho < 1; the form here
// is the stable one consistent with the paper's Figure 5.)
//
// The package provides the closed-form mean (obtained from the standard
// square-and-take-expectations argument). The test suite cross-validates it
// against an exact truncated stationary solve and a Monte-Carlo simulation
// of the chain, both kept in the tests as oracles.
package markov

import "fmt"

// MeanQueueClosedForm returns E[Q] in packets (equivalently, the expected
// clearance duration in cycles) for an N-port switch at load rho:
//
//	E[Q] = rho (N-1) / (2 (1 - rho)).
//
// Derivation: with W = Q + A - 1, stationarity of E[Q] gives
// P(Q=0, A=0) = 1 - rho, and stationarity of E[Q^2] gives
// 2(1-rho) E[Q] = E[(A-1)^2] - (1-rho) = rho N - rho.
func MeanQueueClosedForm(n int, rho float64) float64 {
	if rho < 0 || rho >= 1 {
		panic(fmt.Sprintf("markov: load %v outside [0, 1)", rho))
	}
	return rho * float64(n-1) / (2 * (1 - rho))
}
