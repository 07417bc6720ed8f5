package loadbalance

import (
	"math"
	"math/rand"
	"testing"

	"sprinklers/internal/bound"
	"sprinklers/internal/traffic"
)

func TestInputProfileExact(t *testing.T) {
	const n = 8
	// One VOQ at rate 4/64 = F size 4 around primary 5 -> interval (4,8],
	// share 1/64 on ports 4..7; one at tiny rate, size 1, port 0.
	rates := []float64{4.0 / 64, 0.5 / 64, 0, 0, 0, 0, 0, 0}
	primary := []int{5, 0, 1, 2, 3, 4, 6, 7}
	p := InputProfile(rates, primary, n)
	loads := p.Loads()
	if math.Abs(loads[4]-1.0/64) > 1e-15 || math.Abs(loads[7]-1.0/64) > 1e-15 {
		t.Fatalf("striped share wrong: %v", loads)
	}
	if math.Abs(loads[0]-0.5/64) > 1e-15 {
		t.Fatalf("size-1 share wrong: %v", loads)
	}
	if loads[1] != 0 {
		t.Fatalf("port 1 should be idle: %v", loads)
	}
	wantMean := (4.0/64 + 0.5/64) / n
	if math.Abs(p.Mean()-wantMean) > 1e-15 {
		t.Fatalf("Mean = %v, want %v", p.Mean(), wantMean)
	}
	if p.Max() != loads[0] && p.Max() != loads[4] {
		t.Fatalf("Max = %v", p.Max())
	}
}

func TestImbalanceEdge(t *testing.T) {
	p := InputProfile(make([]float64, 4), []int{0, 1, 2, 3}, 4)
	if p.Imbalance() != 1 {
		t.Fatal("zero profile imbalance should be 1")
	}
}

// TestUniformTrafficNeverOverloads: under uniform traffic all VOQs have
// equal rates, so every placement balances perfectly (stripes all size
// F(rho/N)) and no queue can be overloaded at admissible load.
func TestUniformTrafficNeverOverloads(t *testing.T) {
	const n = 32
	m := traffic.Uniform(n, 0.95)
	rates := m.Row(0)
	mc := Estimate(rates, n, 200, nil, rand.New(rand.NewSource(1)))
	if mc.Overloads != 0 {
		t.Fatalf("%d overloads under uniform traffic", mc.Overloads)
	}
	if mc.MeanMax >= 1.0/n {
		t.Fatalf("mean max load %v at service rate", mc.MeanMax)
	}
}

// TestBelowThresholdNeverOverloads: Monte Carlo over random placements of
// the adversarial split below the Theorem 1 threshold must find zero
// overloads.
func TestBelowThresholdNeverOverloads(t *testing.T) {
	const n = 32
	split := AdversarialSplit(n, 0.6) // below 2/3
	mc := Estimate(split, n, 2000, nil, rand.New(rand.NewSource(2)))
	if mc.Overloads != 0 {
		t.Fatalf("Theorem 1 violated empirically: %d overloads", mc.Overloads)
	}
}

// TestAdversarialOverloadsAboveThreshold: well above the threshold the
// adversarial split must overload with positive probability, and the
// empirical probability must respect the Theorem 2 Chernoff bound.
func TestAdversarialOverloadsAboveThreshold(t *testing.T) {
	const n = 32
	split := AdversarialSplit(n, 0.97)
	mc := Estimate(split, n, 5000, []float64{0.5, 0.99}, rand.New(rand.NewSource(3)))
	if mc.Overloads == 0 {
		t.Skip("no overloads at this seed; adversarial regime weaker than expected")
	}
	chernoff := bound.QueueOverload(n, 0.97)
	if emp := mc.OverloadProbability(); emp > chernoff {
		t.Fatalf("empirical overload probability %v exceeds Chernoff bound %v", emp, chernoff)
	}
}

// TestQueueOverloadsBracketOverloads: every overloaded placement has at
// least one and at most N overloaded queues, so the per-queue count sits
// between the any-of-N count and N times it.
func TestQueueOverloadsBracketOverloads(t *testing.T) {
	const n = 32
	mc := Estimate(AdversarialSplit(n, 0.97), n, 2000, nil, rand.New(rand.NewSource(3)))
	if mc.Overloads == 0 {
		t.Fatal("no overloads in the adversarial regime; the bracket is vacuous")
	}
	if !(mc.Overloads <= mc.QueueOverloads && mc.QueueOverloads <= n*mc.Overloads) {
		t.Fatalf("Overloads %d, QueueOverloads %d: want Overloads <= QueueOverloads <= %d*Overloads",
			mc.Overloads, mc.QueueOverloads, n)
	}
	if q, a := mc.QueueOverloadProbability(), mc.OverloadProbability(); !(a/n <= q && q <= a) {
		t.Fatalf("per-queue frequency %v outside [%v, %v]", q, a/n, a)
	}
}

func TestAdversarialSplitShape(t *testing.T) {
	const n = 32
	split := AdversarialSplit(n, 0.8)
	var sum float64
	for _, r := range split {
		if r < 0 {
			t.Fatal("negative rate")
		}
		sum += r
	}
	if math.Abs(sum-0.8) > 1e-12 {
		t.Fatalf("total %v, want 0.8", sum)
	}
	// The heavy VOQ dominates.
	if split[n/2] < 0.3 {
		t.Fatalf("heavy VOQ rate %v", split[n/2])
	}
}

func TestQuantilesOrdered(t *testing.T) {
	const n = 16
	m := traffic.Diagonal(n, 0.9)
	mc := Estimate(m.Row(0), n, 500, []float64{0.1, 0.5, 0.9}, rand.New(rand.NewSource(4)))
	if len(mc.MaxQuantile) != 3 {
		t.Fatal("quantile count")
	}
	if !(mc.MaxQuantile[0] <= mc.MaxQuantile[1] && mc.MaxQuantile[1] <= mc.MaxQuantile[2]) {
		t.Fatalf("quantiles not ordered: %v", mc.MaxQuantile)
	}
}
