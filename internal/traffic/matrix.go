// Package traffic provides the workload substrate: rate matrices for the
// traffic patterns used in the paper's evaluation (uniform and diagonal,
// Sec. 6) plus additional admissible patterns (hotspot, permutation, Zipf)
// used by the extended experiments, and slot-level arrival processes
// (Bernoulli i.i.d., as in the paper, plus bursty on/off, either one driven
// through a mid-run event timeline by Dynamic). It
// registers the workloads (register.go) and the builtin dynamic scenarios
// that perturb them (scenarios.go) in internal/registry.
package traffic

import (
	"fmt"
	"math"
)

// Matrix is an N x N long-term rate matrix. Entry (i, j) is the normalized
// arrival rate (packets per slot) of the VOQ at input i destined to output j.
// A matrix is admissible when every row sum and every column sum is at most
// one; all stability results in the paper assume admissibility.
type Matrix struct {
	n     int
	rates [][]float64
}

// NewMatrix builds a rate matrix from the given entries. It panics if rates
// is not square or contains a negative entry.
func NewMatrix(rates [][]float64) *Matrix {
	n := len(rates)
	cp := make([][]float64, n)
	for i, row := range rates {
		if len(row) != n {
			panic("traffic: rate matrix must be square")
		}
		for _, r := range row {
			if r < 0 || math.IsNaN(r) {
				panic("traffic: negative or NaN rate")
			}
		}
		cp[i] = append([]float64(nil), row...)
	}
	return &Matrix{n: n, rates: cp}
}

// N returns the port count.
func (m *Matrix) N() int { return m.n }

// Rate returns the rate of VOQ (i, j).
func (m *Matrix) Rate(i, j int) float64 { return m.rates[i][j] }

// Row returns a copy of row i. Callers may mutate the returned slice freely
// (NewBernoulli normalizes its copy in place, for example) without affecting
// the matrix.
func (m *Matrix) Row(i int) []float64 { return append([]float64(nil), m.rates[i]...) }

// Rows returns a deep copy of the full rate matrix as a [][]float64, the
// shape switch configurations take. Every caller gets independent storage,
// so neither the matrix nor other callers observe subsequent mutations —
// the defensive counterpart of handing out m.rates itself.
func (m *Matrix) Rows() [][]float64 {
	out := make([][]float64, m.n)
	for i := range out {
		out[i] = append([]float64(nil), m.rates[i]...)
	}
	return out
}

// RowSum returns the total arrival rate at input port i.
func (m *Matrix) RowSum(i int) float64 {
	var s float64
	for _, r := range m.rates[i] {
		s += r
	}
	return s
}

// ColSum returns the total rate destined to output port j.
func (m *Matrix) ColSum(j int) float64 {
	var s float64
	for i := 0; i < m.n; i++ {
		s += m.rates[i][j]
	}
	return s
}

// Admissible reports whether no input or output port is oversubscribed
// (all row and column sums <= 1, within tol).
func (m *Matrix) Admissible(tol float64) bool {
	for i := 0; i < m.n; i++ {
		if m.RowSum(i) > 1+tol || m.ColSum(i) > 1+tol {
			return false
		}
	}
	return true
}

// MaxLoad returns the largest row or column sum.
func (m *Matrix) MaxLoad() float64 {
	var mx float64
	for i := 0; i < m.n; i++ {
		mx = math.Max(mx, math.Max(m.RowSum(i), m.ColSum(i)))
	}
	return mx
}

// Scale returns a new matrix with every rate multiplied by f.
func (m *Matrix) Scale(f float64) *Matrix {
	out := make([][]float64, m.n)
	for i := range out {
		out[i] = make([]float64, m.n)
		for j := range out[i] {
			out[i][j] = m.rates[i][j] * f
		}
	}
	return NewMatrix(out)
}

// Uniform returns the uniform traffic pattern of Sec. 6: every input is
// loaded at rate load and a packet goes to each output with probability 1/N.
func Uniform(n int, load float64) *Matrix {
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
		for j := range rates[i] {
			rates[i][j] = load / float64(n)
		}
	}
	return NewMatrix(rates)
}

// Diagonal returns the diagonal pattern of Sec. 6: a packet arriving at
// input i goes to output j = i with probability 1/2 and to any other output
// with probability 1/(2(N-1)).
func Diagonal(n int, load float64) *Matrix {
	if n < 2 {
		panic("traffic: diagonal pattern needs N >= 2")
	}
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
		for j := range rates[i] {
			if i == j {
				rates[i][j] = load / 2
			} else {
				rates[i][j] = load / (2 * float64(n-1))
			}
		}
	}
	return NewMatrix(rates)
}

// Hotspot returns a pattern where a fraction hot of each input's load is
// aimed at output (i+1) mod N and the remainder is spread uniformly. With
// hot = 1/2 it coincides with a shifted diagonal pattern; larger hot values
// stress the load-balancing guarantees harder while remaining admissible.
func Hotspot(n int, load, hot float64) *Matrix {
	if hot < 0 || hot > 1 {
		panic(fmt.Sprintf("traffic: hotspot fraction %v out of [0,1]", hot))
	}
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
		for j := range rates[i] {
			rates[i][j] = load * (1 - hot) / float64(n)
		}
		rates[i][(i+1)%n] += load * hot
	}
	return NewMatrix(rates)
}

// Permutation returns a pattern in which input i sends all of its load to
// output perm[i]. This is the hardest admissible point pattern for
// hashing-style schemes.
func Permutation(perm []int, load float64) *Matrix {
	n := len(perm)
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
		rates[i][perm[i]] = load
	}
	return NewMatrix(rates)
}

// Zipf returns a pattern where input i spreads its load across outputs with
// Zipf(s) popularity ranked by (j-i) mod N, producing a heavy-tailed mix of
// large and small VOQs — the regime where rate-proportional striping matters
// most.
func Zipf(n int, load, s float64) *Matrix {
	weights := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		total += weights[k]
	}
	rates := make([][]float64, n)
	for i := range rates {
		rates[i] = make([]float64, n)
		for k := 0; k < n; k++ {
			j := (i + k) % n
			rates[i][j] = load * weights[k] / total
		}
	}
	return NewMatrix(rates)
}
