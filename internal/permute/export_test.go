package permute

// Permutation and square checks only the tests use.

// IsPermutation reports whether p is a permutation of {0, ..., len(p)-1}.
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Inverse returns the inverse permutation of p.
func Inverse(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// FixedOLS builds the deterministic OLS a(i,j) = (i+j) mod n. It is useful in
// tests where a known square is wanted; it is a valid OLS but not random.
func FixedOLS(n int) *OLS {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return &OLS{rowPerm: id, colPerm: append([]int(nil), id...), n: n}
}

// N returns the order of the square.
func (o *OLS) N() int { return o.n }

// Row returns row i of the square as a fresh slice (the permutation mapping
// output j to the primary intermediate port of VOQ (i, j)).
func (o *OLS) Row(i int) []int {
	r := make([]int, o.n)
	for j := range r {
		r[j] = o.At(i, j)
	}
	return r
}

// Col returns column j of the square as a fresh slice.
func (o *OLS) Col(j int) []int {
	c := make([]int, o.n)
	for i := range c {
		c[i] = o.At(i, j)
	}
	return c
}

// Valid reports whether every row and every column of the square is a
// permutation of {0, ..., N-1} (the defining OLS property from Sec. 3.3.3).
func (o *OLS) Valid() bool {
	for i := 0; i < o.n; i++ {
		if !IsPermutation(o.Row(i)) || !IsPermutation(o.Col(i)) {
			return false
		}
	}
	return true
}
