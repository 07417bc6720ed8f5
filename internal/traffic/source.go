package traffic

import (
	"math/rand"

	"sprinklers/internal/sim"
)

// destEntry is one packed bucket of a flattened alias table — the
// acceptance threshold scaled to 32 bits and the alias target — fused with
// the per-(input, output) flow sequence counter. When a draw accepts its
// own bucket (the overwhelmingly common case for near-uniform rows, whose
// buckets are all nearly full) the alias lookup and the sequence-number
// update touch the same 16-byte entry, i.e. one cache line.
type destEntry struct {
	thresh uint32 // accept the bucket itself when the 32-bit fraction is below this
	alias  int32
	seq    uint64
}

// Bernoulli is the arrival process used throughout the paper's evaluation:
// in every slot, input port i independently receives one packet with
// probability equal to its row sum, and the packet's destination is drawn
// from the row's conditional distribution. Destination sampling uses Walker
// alias tables so a draw is O(1) regardless of N; each alias draw consumes a
// single 64-bit variate from an inlined xoshiro256++ generator.
type Bernoulli struct {
	n   int
	rng rng
	// arriv[i] is input i's arrival probability (its matrix row sum) scaled
	// to 64 bits: a packet arrives iff Uint64() < arriv[i]. The per-input
	// alias tables and flow sequence numbers are flattened into one
	// contiguous entry array indexed i*n+j, keeping the whole sampling
	// state pointer-free.
	arriv []uint64
	dest  []destEntry
}

// NewBernoulli builds the Bernoulli source for rate matrix m. The source's
// internal fast generator is seeded from rng, so the same seed reproduces
// the same packet trace run-to-run. The matrix is read, never mutated.
func NewBernoulli(m *Matrix, rng *rand.Rand) *Bernoulli {
	n := m.N()
	src := &Bernoulli{
		n:     n,
		rng:   newRNG(rng.Uint64()),
		arriv: make([]uint64, n),
		dest:  make([]destEntry, n*n),
	}
	for i := 0; i < n; i++ {
		src.setRow(m, i, 1)
	}
	return src
}

// setRow (re)builds input i's arrival threshold and destination alias
// table from row i of m, with the input's ingress link at capacity factor
// linkFactor (0 = failed, 1 = full): the link thins the row's arrival
// probability. Per-flow sequence counters carry over untouched.
func (b *Bernoulli) setRow(m *Matrix, i int, linkFactor float64) {
	prob := m.RowSum(i)
	if prob > 1 {
		prob = 1
	}
	if prob *= linkFactor; prob >= 1 {
		b.arriv[i] = ^uint64(0)
	} else {
		b.arriv[i] = uint64(prob * 0x1p64)
	}
	t := newConditionalAliasTable(m, i)
	for j := range t.prob {
		thresh := t.prob[j] * (1 << 32)
		if thresh > 0xffffffff {
			thresh = 0xffffffff
		}
		e := &b.dest[i*b.n+j]
		e.thresh, e.alias = uint32(thresh), int32(t.alias[j])
	}
}

// newConditionalAliasTable builds the alias table for input i's conditional
// destination distribution, normalizing into a scratch copy so the matrix
// row is never written through.
func newConditionalAliasTable(m *Matrix, i int) aliasTable {
	row := m.Row(i) // a copy, safe to normalize in place
	if sum := m.RowSum(i); sum > 0 {
		for j := range row {
			row[j] /= sum
		}
	}
	return newAliasTable(row)
}

// N implements sim.Source.
func (b *Bernoulli) N() int { return b.n }

// Next implements sim.Source: it emits the slot-t arrivals. The generator
// state lives in a local for the duration of the loop so the compiler can
// keep it in registers across draws.
func (b *Bernoulli) Next(t sim.Slot, emit func(sim.Packet)) {
	r := b.rng
	for i := 0; i < b.n; i++ {
		if r.Uint64() >= b.arriv[i] {
			continue
		}
		// One 64-bit draw per destination sample: high 32 bits select the
		// alias bucket (Lemire range reduction), low 32 bits accept/alias.
		u := r.Uint64()
		base := i * b.n
		j := int(((u >> 32) * uint64(b.n)) >> 32)
		e := &b.dest[base+j]
		if uint32(u) >= e.thresh {
			j = int(e.alias)
			e = &b.dest[base+j]
		}
		p := sim.Packet{
			In:      int32(i),
			Out:     int32(j),
			Seq:     e.seq,
			Arrival: t,
		}
		e.seq++
		emit(p)
	}
	b.rng = r
}

// aliasTable implements Walker's alias method for O(1) sampling from a
// discrete distribution.
type aliasTable struct {
	prob  []float64
	alias []int
}

func newAliasTable(weights []float64) aliasTable {
	n := len(weights)
	t := aliasTable{prob: make([]float64, n), alias: make([]int, n)}
	var total float64
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		// Degenerate all-zero row: sample uniformly (the row is never
		// drawn because its arrival probability is zero).
		for i := range t.prob {
			t.prob[i] = 1
			t.alias[i] = i
		}
		return t
	}
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// draw samples the table from one 64-bit variate: the high 32 bits select
// the bucket (Lemire's multiply-shift range reduction) and the low 32 bits
// form the acceptance fraction, halving the generator calls per sample.
func (t aliasTable) draw(r *rng) int {
	u := r.Uint64()
	i := int(((u >> 32) * uint64(len(t.prob))) >> 32)
	if float64(u&0xffffffff)*0x1p-32 < t.prob[i] {
		return i
	}
	return t.alias[i]
}
