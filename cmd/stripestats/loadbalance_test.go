package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
	p := inputProfile(rates, primary, n)
	loads := p.loads
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
	if math.Abs(p.mean()-wantMean) > 1e-15 {
		t.Fatalf("mean = %v, want %v", p.mean(), wantMean)
	}
	if p.maxLoad() != loads[0] && p.maxLoad() != loads[4] {
		t.Fatalf("maxLoad = %v", p.maxLoad())
	}
}

func TestImbalanceEdge(t *testing.T) {
	p := inputProfile(make([]float64, 4), []int{0, 1, 2, 3}, 4)
	if p.imbalance() != 1 {
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
	mc := estimate(rates, n, 200, nil, rand.New(rand.NewSource(1)))
	if mc.overloads != 0 {
		t.Fatalf("%d overloads under uniform traffic", mc.overloads)
	}
	if mc.meanMax >= 1.0/n {
		t.Fatalf("mean max load %v at service rate", mc.meanMax)
	}
}

// TestBelowThresholdNeverOverloads: Monte Carlo over random placements of
// the adversarial split below the Theorem 1 threshold must find zero
// overloads.
func TestBelowThresholdNeverOverloads(t *testing.T) {
	const n = 32
	split := adversarialSplit(n, 0.6) // below 2/3
	mc := estimate(split, n, 2000, nil, rand.New(rand.NewSource(2)))
	if mc.overloads != 0 {
		t.Fatalf("Theorem 1 violated empirically: %d overloads", mc.overloads)
	}
}

// TestAdversarialOverloadsAboveThreshold: well above the threshold the
// adversarial split must overload with positive probability, and the
// empirical probability must respect the Theorem 2 Chernoff bound.
func TestAdversarialOverloadsAboveThreshold(t *testing.T) {
	const n = 32
	split := adversarialSplit(n, 0.97)
	mc := estimate(split, n, 5000, []float64{0.5, 0.99}, rand.New(rand.NewSource(3)))
	if mc.overloads == 0 {
		t.Skip("no overloads at this seed; adversarial regime weaker than expected")
	}
	chernoff := bound.QueueOverload(n, 0.97)
	if emp := mc.overloadProbability(); emp > chernoff {
		t.Fatalf("empirical overload probability %v exceeds Chernoff bound %v", emp, chernoff)
	}
}

// TestQueueOverloadsBracketOverloads: every overloaded placement has at
// least one and at most N overloaded queues, so the per-queue count sits
// between the any-of-N count and N times it.
func TestQueueOverloadsBracketOverloads(t *testing.T) {
	const n = 32
	mc := estimate(adversarialSplit(n, 0.97), n, 2000, nil, rand.New(rand.NewSource(3)))
	if mc.overloads == 0 {
		t.Fatal("no overloads in the adversarial regime; the bracket is vacuous")
	}
	if !(mc.overloads <= mc.queueOverloads && mc.queueOverloads <= n*mc.overloads) {
		t.Fatalf("overloads %d, queueOverloads %d: want overloads <= queueOverloads <= %d*overloads",
			mc.overloads, mc.queueOverloads, n)
	}
	if q, a := mc.queueOverloadProbability(), mc.overloadProbability(); !(a/n <= q && q <= a) {
		t.Fatalf("per-queue frequency %v outside [%v, %v]", q, a/n, a)
	}
}

func TestAdversarialSplitShape(t *testing.T) {
	const n = 32
	split := adversarialSplit(n, 0.8)
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
	mc := estimate(m.Row(0), n, 500, []float64{0.1, 0.5, 0.9}, rand.New(rand.NewSource(4)))
	if len(mc.maxQuantile) != 3 {
		t.Fatal("quantile count")
	}
	if !(mc.maxQuantile[0] <= mc.maxQuantile[1] && mc.maxQuantile[1] <= mc.maxQuantile[2]) {
		t.Fatalf("quantiles not ordered: %v", mc.maxQuantile)
	}
}

// mean returns the average per-port load (total input load / N).
func (p profile) mean() float64 {
	var s float64
	for _, l := range p.loads {
		s += l
	}
	return s / float64(p.n)
}

// imbalance returns maxLoad/mean, 1.0 being perfect balance. A zero-load
// profile reports 1.
func (p profile) imbalance() float64 {
	m := p.mean()
	if m == 0 {
		return 1
	}
	return p.maxLoad() / m
}

// TestExampleInputProfile computes the exact per-intermediate-port load
// that one input's stripe assignment induces — the quantity X_l the Sec. 4
// analysis bounds.
func TestExampleInputProfile(t *testing.T) {
	const n = 8
	// One VOQ of rate 4/N^2 (stripe size 4) whose primary port is 5, so
	// its interval is ports 4..7 with load-per-share 1/64 on each.
	rates := make([]float64, n)
	rates[0] = 4.0 / 64
	primary := []int{5, 0, 1, 2, 3, 4, 6, 7}
	p := inputProfile(rates, primary, n)
	var out strings.Builder
	fmt.Fprintf(&out, "port 4 load: %.4f of the 1/N=%.4f service rate\n", p.loads[4], 1.0/n)
	fmt.Fprintf(&out, "overloaded: %v\n", p.overloadedQueues() > 0)
	want := "port 4 load: 0.0156 of the 1/N=0.1250 service rate\noverloaded: false\n"
	if out.String() != want {
		t.Errorf("got\n%swant\n%s", out.String(), want)
	}
}

// TestExampleEstimate Monte-Carlo samples random stripe placements for a
// uniform workload: with equal VOQ rates every placement balances
// perfectly, so the overload probability is zero.
func TestExampleEstimate(t *testing.T) {
	const n = 32
	rates := traffic.Uniform(n, 0.95).Row(0)
	mc := estimate(rates, n, 500, nil, rand.New(rand.NewSource(1)))
	got := fmt.Sprintf("overloads: %d of %d placements\n", mc.overloads, mc.trials)
	if want := "overloads: 0 of 500 placements\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
