// Package permute provides uniform random permutations (Fisher–Yates,
// Durstenfeld's Algorithm 235) and the weakly uniform random Orthogonal
// Latin Square construction of Sec. 3.3.3 used to coordinate the stripe
// interval generation across all N input ports.
package permute

import "math/rand"

// Uniform returns a uniformly random permutation of {0, ..., n-1} drawn from
// rng using the Fisher–Yates shuffle.
func Uniform(n int, rng *rand.Rand) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// OLS is an N x N Orthogonal Latin Square over the alphabet {0, ..., N-1}:
// every row and every column is a permutation. Entry At(i, j) is the primary
// intermediate port assigned to the VOQ at input port i destined to output
// port j.
//
// The construction is the weakly uniform random one from the paper:
// a(i, j) = (sigmaR(i) + sigmaC(j)) mod N with sigmaR, sigmaC independent
// uniform random permutations. Each row and each column is then marginally a
// uniform random permutation, which is exactly what the worst-case large
// deviation analysis requires, and the square is generated in O(N log N)
// random bits rather than the open problem of sampling a strongly uniform
// OLS.
type OLS struct {
	rowPerm []int // sigmaR
	colPerm []int // sigmaC
	n       int
}

// NewOLS builds a weakly uniform random OLS of order n using randomness from
// rng.
func NewOLS(n int, rng *rand.Rand) *OLS {
	return &OLS{
		rowPerm: Uniform(n, rng),
		colPerm: Uniform(n, rng),
		n:       n,
	}
}

// At returns the entry in row i, column j: the 0-based primary intermediate
// port for the VOQ from input i to output j.
func (o *OLS) At(i, j int) int {
	return (o.rowPerm[i] + o.colPerm[j]) % o.n
}
