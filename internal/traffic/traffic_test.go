package traffic

import (
	"math"
	"math/rand"
	"testing"

	"sprinklers/internal/sim"
)

func TestUniformMatrix(t *testing.T) {
	m := Uniform(32, 0.8)
	for i := 0; i < 32; i++ {
		if math.Abs(m.RowSum(i)-0.8) > 1e-12 {
			t.Fatalf("row %d sum %v", i, m.RowSum(i))
		}
		if math.Abs(m.ColSum(i)-0.8) > 1e-12 {
			t.Fatalf("col %d sum %v", i, m.ColSum(i))
		}
	}
	if !m.Admissible(1e-9) {
		t.Fatal("uniform(0.8) should be admissible")
	}
	if m.Rate(3, 7) != 0.8/32 {
		t.Fatalf("Rate = %v", m.Rate(3, 7))
	}
}

func TestDiagonalMatrix(t *testing.T) {
	// The paper's diagonal pattern: P(j=i) = 1/2, others 1/(2(N-1)).
	m := Diagonal(32, 0.9)
	if math.Abs(m.Rate(5, 5)-0.45) > 1e-12 {
		t.Fatalf("diagonal rate %v", m.Rate(5, 5))
	}
	if math.Abs(m.Rate(5, 6)-0.9/62) > 1e-12 {
		t.Fatalf("off-diagonal rate %v", m.Rate(5, 6))
	}
	for i := 0; i < 32; i++ {
		if math.Abs(m.RowSum(i)-0.9) > 1e-9 || math.Abs(m.ColSum(i)-0.9) > 1e-9 {
			t.Fatalf("diagonal not doubly 0.9-stochastic at %d", i)
		}
	}
}

func TestHotspotAndZipfAdmissible(t *testing.T) {
	for _, m := range []*Matrix{
		Hotspot(16, 0.95, 0.5),
		Hotspot(16, 0.95, 0.9),
		Zipf(16, 0.95, 1.2),
		Zipf(16, 0.95, 0.5),
	} {
		if !m.Admissible(1e-9) {
			t.Fatalf("pattern inadmissible: max load %v", m.MaxLoad())
		}
		for i := 0; i < 16; i++ {
			if math.Abs(m.RowSum(i)-0.95) > 1e-9 {
				t.Fatalf("row sum %v != 0.95", m.RowSum(i))
			}
		}
	}
}

func TestPermutationMatrix(t *testing.T) {
	m := Permutation([]int{2, 0, 1}, 0.7)
	if m.Rate(0, 2) != 0.7 || m.Rate(0, 0) != 0 {
		t.Fatal("permutation rates wrong")
	}
	if !m.Admissible(0) {
		t.Fatal("permutation pattern should be admissible")
	}
}

func TestMatrixScaleAndMaxLoad(t *testing.T) {
	m := Uniform(8, 0.5).Scale(1.6)
	if math.Abs(m.MaxLoad()-0.8) > 1e-12 {
		t.Fatalf("MaxLoad = %v", m.MaxLoad())
	}
}

func TestNewMatrixValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"non-square": func() { NewMatrix([][]float64{{1, 2}}) },
		"negative":   func() { NewMatrix([][]float64{{-1}}) },
		"NaN":        func() { NewMatrix([][]float64{{math.NaN()}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestBernoulliEmpiricalRates drives the source and checks per-VOQ empirical
// rates against the matrix within statistical tolerance.
func TestBernoulliEmpiricalRates(t *testing.T) {
	const (
		n     = 8
		slots = 200000
	)
	m := Diagonal(n, 0.6)
	src := NewBernoulli(m, rand.New(rand.NewSource(9)))
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	for tt := sim.Slot(0); tt < slots; tt++ {
		src.Next(tt, func(p sim.Packet) {
			if p.Arrival != tt {
				t.Fatalf("arrival stamp %d at slot %d", p.Arrival, tt)
			}
			counts[p.In][p.Out]++
		})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := m.Rate(i, j) * slots
			got := float64(counts[i][j])
			if sd := math.Sqrt(want); math.Abs(got-want) > 6*sd+1 {
				t.Errorf("VOQ(%d,%d): %0.f arrivals, want ~%.0f", i, j, got, want)
			}
		}
	}
}

// TestBernoulliSequencing checks per-flow sequence numbers are dense and
// increasing, so (In, Out, Seq) names each packet once.
func TestBernoulliSequencing(t *testing.T) {
	const n = 4
	src := NewBernoulli(Uniform(n, 0.9), rand.New(rand.NewSource(3)))
	next := make([][]uint64, n)
	for i := range next {
		next[i] = make([]uint64, n)
	}
	type flowSeq struct {
		in, out int32
		seq     uint64
	}
	seen := make(map[flowSeq]bool)
	for tt := sim.Slot(0); tt < 20000; tt++ {
		perInput := make(map[int]int)
		src.Next(tt, func(p sim.Packet) {
			perInput[int(p.In)]++
			if perInput[int(p.In)] > 1 {
				t.Fatal("two arrivals at one input in one slot")
			}
			k := flowSeq{p.In, p.Out, p.Seq}
			if seen[k] {
				t.Fatalf("duplicate packet %+v", k)
			}
			seen[k] = true
			if p.Seq != next[p.In][p.Out] {
				t.Fatalf("flow (%d,%d): seq %d, want %d", p.In, p.Out, p.Seq, next[p.In][p.Out])
			}
			next[p.In][p.Out]++
		})
	}
}

func TestBernoulliZeroRateRowEmitsNothing(t *testing.T) {
	rates := make([][]float64, 2)
	rates[0] = []float64{0, 0.5}
	rates[1] = []float64{0, 0}
	src := NewBernoulli(NewMatrix(rates), rand.New(rand.NewSource(1)))
	for tt := sim.Slot(0); tt < 5000; tt++ {
		src.Next(tt, func(p sim.Packet) {
			if p.In == 1 {
				t.Fatal("zero-rate input emitted a packet")
			}
		})
	}
}

// TestMatrixRowHandlingIsDefensive: constructing sources from a matrix (and
// mutating what Row/Rows return) must never change the matrix itself —
// NewBernoulli normalizes its row copies in place, which once risked leaking
// through shared backing arrays into every later consumer of the matrix.
func TestMatrixRowHandlingIsDefensive(t *testing.T) {
	m := Diagonal(8, 0.6)
	before := m.Rows()
	NewBernoulli(m, rand.New(rand.NewSource(1)))
	NewOnOff(m, 8, rand.New(rand.NewSource(2)))
	NewPhased(8, rand.New(rand.NewSource(3))).AddPhase(m, 100)
	row := m.Row(2)
	for j := range row {
		row[j] = -1
	}
	rows := m.Rows()
	rows[0][0] = 99
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if m.Rate(i, j) != before[i][j] {
				t.Fatalf("matrix entry (%d,%d) changed: %v -> %v",
					i, j, before[i][j], m.Rate(i, j))
			}
		}
	}
}

// TestAliasTable checks Walker alias sampling against the target
// distribution.
func TestAliasTable(t *testing.T) {
	weights := []float64{0.5, 0.25, 0.125, 0.0, 0.125}
	at := newAliasTable(weights)
	r := newRNG(7)
	const draws = 400000
	counts := make([]float64, len(weights))
	for k := 0; k < draws; k++ {
		counts[at.draw(&r)]++
	}
	for i, w := range weights {
		got := counts[i] / draws
		if math.Abs(got-w) > 0.005 {
			t.Errorf("alias weight %d: %v, want %v", i, got, w)
		}
	}
}

func TestOnOffLongRunRate(t *testing.T) {
	const (
		n     = 4
		slots = 400000
		load  = 0.5
	)
	m := Uniform(n, load)
	src := NewOnOff(m, 16, rand.New(rand.NewSource(11)))
	var count int64
	for tt := sim.Slot(0); tt < slots; tt++ {
		src.Next(tt, func(sim.Packet) { count++ })
	}
	got := float64(count) / (n * slots)
	if math.Abs(got-load) > 0.03 {
		t.Errorf("on/off long-run rate %v, want ~%v", got, load)
	}
}

// TestOnOffIsBursty: consecutive-arrival runs must be much longer than
// Bernoulli's at the same load.
func TestOnOffIsBursty(t *testing.T) {
	m := Uniform(1, 0.3)
	src := NewOnOff(m, 32, rand.New(rand.NewSource(13)))
	var runs, runLen, cur int
	for tt := sim.Slot(0); tt < 200000; tt++ {
		arrived := false
		src.Next(tt, func(sim.Packet) { arrived = true })
		if arrived {
			cur++
		} else if cur > 0 {
			runs++
			runLen += cur
			cur = 0
		}
	}
	mean := float64(runLen) / float64(runs)
	if mean < 8 {
		t.Errorf("mean burst length %v, want >= 8 for meanBurst=32", mean)
	}
}

func TestPhasedSeqContinuity(t *testing.T) {
	p := NewPhased(2, rand.New(rand.NewSource(21))).
		AddPhase(Uniform(2, 0.8), 5000).
		AddPhase(Uniform(2, 0.3), 5000)
	if p.TotalSlots() != 10000 {
		t.Fatalf("TotalSlots = %d", p.TotalSlots())
	}
	next := [2][2]uint64{}
	var inPhase2 int
	for tt := sim.Slot(0); tt < 12000; tt++ {
		p.Next(tt, func(pkt sim.Packet) {
			if tt >= 10000 {
				t.Fatal("arrival beyond final phase")
			}
			if tt >= 5000 {
				inPhase2++
			}
			if pkt.Seq != next[pkt.In][pkt.Out] {
				t.Fatalf("flow (%d,%d) seq %d, want %d (phase boundary reset?)",
					pkt.In, pkt.Out, pkt.Seq, next[pkt.In][pkt.Out])
			}
			next[pkt.In][pkt.Out]++
		})
	}
	if inPhase2 == 0 {
		t.Fatal("phase 2 produced no arrivals")
	}
}
