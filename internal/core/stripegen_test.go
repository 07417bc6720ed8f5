package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"sprinklers/internal/dyadic"
	"sprinklers/internal/queue"
	"sprinklers/internal/traffic"
)

// arrivalRate computes X(r, sigma) from first principles: the total rate
// arriving at the queue of packets bound for intermediate port l at one
// input port, given VOQ rates and primary-port assignments (Sec. 4.1).
func arrivalRate(rates []float64, primary []int, n, l int) float64 {
	var x float64
	for j, r := range rates {
		if r == 0 {
			continue
		}
		f := dyadic.StripeSize(r, n)
		iv := dyadic.Containing(primary[j], f)
		if iv.Contains(l) {
			x += r / float64(f)
		}
	}
	return x
}

// TestTheorem1NoOverloadBelowThreshold: for any rate split with total load
// strictly below 2/3 + 1/(3N^2) and any placement, every queue's arrival
// rate is below the 1/N service rate. This is Theorem 1 verified by direct
// construction.
func TestTheorem1NoOverloadBelowThreshold(t *testing.T) {
	const n = 32
	threshold := 2.0/3.0 + 1.0/(3.0*n*n)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 400; trial++ {
		// Random split of a random total below the threshold, with a
		// bias toward few large VOQs (the adversarial regime).
		total := threshold * (0.2 + 0.79*rng.Float64())
		k := 1 + rng.Intn(n)
		weights := make([]float64, n)
		var wsum float64
		for c := 0; c < k; c++ {
			j := rng.Intn(n)
			w := math.Pow(rng.Float64(), 2)
			weights[j] += w
			wsum += w
		}
		rates := make([]float64, n)
		for j := range rates {
			rates[j] = total * weights[j] / wsum
		}
		primary := rng.Perm(n)
		for l := 0; l < n; l++ {
			if x := arrivalRate(rates, primary, n, l); x >= 1.0/n {
				t.Fatalf("trial %d: queue at port %d overloaded: X=%v >= 1/N (total load %v < %v)",
					trial, l, x, total, threshold)
			}
		}
	}
}

// TestTheorem1Tightness reproduces the extremal construction in the proof
// of Theorem 1 (Lemma 1): at total load exactly 2/3 + 1/(3N^2), a worst-case
// rate split and placement drives one queue's arrival rate to exactly 1/N.
func TestTheorem1Tightness(t *testing.T) {
	const n = 32
	rates := make([]float64, n)
	primary := make([]int, n)
	var total float64
	// VOQ with primary port p (0-based; l = p+1 in the paper's 1-based
	// numbering) gets rate 2^ceil(log2(l)) / N^2 for l = 1..N/2, and the
	// VOQ at primary N/2 carries rate 1/2 with stripe size N.
	for p := 0; p < n/2; p++ {
		l := p + 1
		f := 1
		for f < l {
			f *= 2
		}
		rates[p] = float64(f) / (n * n)
		primary[p] = p
		total += rates[p]
	}
	rates[n/2] = 0.5
	primary[n/2] = n / 2
	total += 0.5
	for p := n/2 + 1; p < n; p++ {
		primary[p] = p
	}

	threshold := 2.0/3.0 + 1.0/(3.0*float64(n)*float64(n))
	if math.Abs(total-threshold) > 1e-12 {
		t.Fatalf("construction total %v, want threshold %v", total, threshold)
	}
	x := arrivalRate(rates, primary, n, 0)
	if math.Abs(x-1.0/n) > 1e-12 {
		t.Fatalf("extremal X = %v, want exactly 1/N = %v", x, 1.0/n)
	}
}

// TestStripeAssignmentStructure: the switch's stripe intervals must contain
// their OLS primary port, have size F(rate), and the primaries at each
// input and toward each output must be distinct (the OLS property).
func TestStripeAssignmentStructure(t *testing.T) {
	const n = 16
	m := traffic.Zipf(n, 0.9, 1.1)
	sw := newSwitch(t, n, m, GatedLSF, 71)
	for i := 0; i < n; i++ {
		seen := make([]bool, n)
		for j := 0; j < n; j++ {
			p := sw.PrimaryPort(i, j)
			if seen[p] {
				t.Fatalf("input %d: primary port %d assigned twice", i, p)
			}
			seen[p] = true
			iv := sw.StripeInterval(i, j)
			if !iv.Valid(n) {
				t.Fatalf("invalid interval %v", iv)
			}
			if !iv.Contains(p) {
				t.Fatalf("interval %v does not contain primary %d", iv, p)
			}
			if want := dyadic.StripeSize(m.Rate(i, j), n); iv.Size != want {
				t.Fatalf("VOQ(%d,%d) stripe size %d, want F(r)=%d", i, j, iv.Size, want)
			}
		}
	}
	for j := 0; j < n; j++ {
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			p := sw.PrimaryPort(i, j)
			if seen[p] {
				t.Fatalf("output %d: primary port %d assigned twice (OLS column violated)", j, p)
			}
			seen[p] = true
		}
	}
}

// TestLoadBalanceQuality: under admissible traffic, the expected arrival
// rate to every (input, intermediate) queue must stay below the 1/N service
// rate for the vast majority of random placements — the operational content
// of the Sec. 4 analysis, checked at simulation scale.
func TestLoadBalanceQuality(t *testing.T) {
	const n = 32
	const trials = 300
	m := traffic.Diagonal(n, 0.9)
	rates := m.Row(0)
	rng := rand.New(rand.NewSource(73))
	overloads := 0
	for trial := 0; trial < trials; trial++ {
		primary := rng.Perm(n)
		for l := 0; l < n; l++ {
			if arrivalRate(rates, primary, n, l) >= 1.0/n {
				overloads++
				break
			}
		}
	}
	// The Chernoff bound at this (small) N is vacuous, but empirically
	// overloads should be rare; a majority would mean the striping is
	// not balancing at all.
	if overloads > trials/10 {
		t.Fatalf("%d of %d random placements overloaded a queue", overloads, trials)
	}
}

// TestConfigValidation exercises every rejection path.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 12},
		{N: 8, Rates: make([][]float64, 4)},
		{N: 4, Rates: [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}}},
		{N: 8, DefaultStripeSize: 3},
		{N: 8, DefaultStripeSize: 16},
		{N: 8, Scheduler: Scheduler(9)},
		{N: 8, Adaptive: &AdaptiveConfig{Gamma: 2}},
		{N: 8, Adaptive: &AdaptiveConfig{Window: -1}},
		{N: 8, Adaptive: &AdaptiveConfig{HoldWindows: -1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := New(Config{N: 8}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew should panic on bad config")
			}
		}()
		MustNew(Config{N: 3})
	}()
}

func TestSchedulerString(t *testing.T) {
	if GatedLSF.String() != "gated-lsf" || GreedyLSF.String() != "greedy-lsf" {
		t.Fatal("scheduler names wrong")
	}
	if Scheduler(7).String() == "" {
		t.Fatal("unknown scheduler should still render")
	}
}

// TestDeterminism: identical configuration and arrivals produce identical
// behaviour.
func TestDeterminism(t *testing.T) {
	run := func() (sum int64) {
		m := traffic.Diagonal(16, 0.8)
		sw := MustNew(Config{N: 16, Rates: rowsOf(m), Rand: rand.New(rand.NewSource(5))})
		src := traffic.NewBernoulli(m, rand.New(rand.NewSource(6)))
		var total int64
		for tt := 0; tt < 30000; tt++ {
			src.Next(int64ToSlot(tt), sw.Arrive)
			sw.Step(func(d delivery) { total += int64(d.Delay()) })
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs diverged: %d vs %d", a, b)
	}
}

// TestArriveValidatesPorts: out-of-range ports must be rejected loudly.
func TestArriveValidatesPorts(t *testing.T) {
	sw := MustNew(Config{N: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	sw.Arrive(packet{In: 9, Out: 0})
}

// TestQuickNoReorderRandomConfigs is the flagship property test: for random
// switch sizes, loads, patterns and seeds, the gated Sprinklers switch
// never reorders a flow.
func TestQuickNoReorderRandomConfigs(t *testing.T) {
	f := func(seed int64, nExp, patKind uint8, loadRaw uint16) bool {
		n := 4 << (nExp % 3) // 4, 8, 16
		load := 0.05 + float64(loadRaw%900)/1000
		rng := rand.New(rand.NewSource(seed))
		var m *traffic.Matrix
		switch patKind % 3 {
		case 0:
			m = traffic.Uniform(n, load)
		case 1:
			m = traffic.Diagonal(n, load)
		default:
			m = traffic.Zipf(n, load, 1.0)
		}
		sw := MustNew(Config{N: n, Rates: rowsOf(m), Rand: rng})
		src := traffic.NewBernoulli(m, rand.New(rand.NewSource(seed+1)))
		bad := false
		maxSeen := map[[2]int]int64{}
		for tt := 0; tt < 20000; tt++ {
			src.Next(int64ToSlot(tt), sw.Arrive)
			sw.Step(func(d delivery) {
				k := [2]int{int(d.Packet.In), int(d.Packet.Out)}
				prev, ok := maxSeen[k]
				if ok && int64(d.Packet.Seq) < prev {
					bad = true
				}
				if int64(d.Packet.Seq) > prev || !ok {
					maxSeen[k] = int64(d.Packet.Seq)
				}
			})
		}
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestVOQStateLayout pins the per-VOQ footprint: a buffered packet is its
// 8-byte arrival slot and a VOQ's state fits one 64-byte cache line, N² of
// them per switch. It also holds a cell, which every departure is, to at
// most 4 fields and 32 bytes: the bounds within which the Go compiler keeps
// a struct in registers (ssa.CanSSA, as sim's TestPacketFitsRegisters
// checks for Packet and Delivery).
func TestVOQStateLayout(t *testing.T) {
	if got := unsafe.Sizeof(queue.Record{}); got != 8 {
		t.Errorf("queue.Record is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(voqState{}); got > 64 {
		t.Errorf("voqState is %d bytes, want at most 64", got)
	}
	if fields, size := reflect.TypeFor[cell]().NumField(), unsafe.Sizeof(cell{}); fields > 4 || size > 32 {
		t.Errorf("cell has %d fields in %d bytes, want at most 4 in 32", fields, size)
	}
}
