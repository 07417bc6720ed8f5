package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func exactQuantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func testDistribution(t *testing.T, name string, gen func(*rand.Rand) float64, p, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	est := NewP2(p)
	var xs []float64
	for k := 0; k < 100000; k++ {
		v := gen(rng)
		xs = append(xs, v)
		est.Add(v)
	}
	exact := exactQuantile(xs, p)
	got := est.Value()
	scale := math.Max(math.Abs(exact), 1)
	if math.Abs(got-exact)/scale > tol {
		t.Errorf("%s p%.2f: P2 %.4f vs exact %.4f", name, p, got, exact)
	}
}

func TestP2Accuracy(t *testing.T) {
	uniform := func(r *rand.Rand) float64 { return r.Float64() * 100 }
	exponential := func(r *rand.Rand) float64 { return r.ExpFloat64() * 50 }
	lognormal := func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) }
	for _, p := range []float64{0.5, 0.9, 0.99} {
		testDistribution(t, "uniform", uniform, p, 0.05)
		testDistribution(t, "exponential", exponential, p, 0.05)
		testDistribution(t, "lognormal", lognormal, p, 0.10)
	}
}

func TestP2SmallSamples(t *testing.T) {
	est := NewP2(0.5)
	if est.Value() != 0 {
		t.Fatal("empty estimator should report 0")
	}
	est.Add(3)
	est.Add(1)
	est.Add(2)
	if got := est.Value(); got != 2 {
		t.Fatalf("median of {1,2,3} = %v", got)
	}
	if est.Count() != 3 {
		t.Fatalf("Count = %d", est.Count())
	}
}

func TestP2ConstantStream(t *testing.T) {
	est := NewP2(0.9)
	for k := 0; k < 1000; k++ {
		est.Add(42)
	}
	if est.Value() != 42 {
		t.Fatalf("constant stream quantile = %v", est.Value())
	}
}

func TestP2MonotoneStream(t *testing.T) {
	est := NewP2(0.5)
	for k := 0; k < 10001; k++ {
		est.Add(float64(k))
	}
	if got := est.Value(); math.Abs(got-5000) > 250 {
		t.Fatalf("median of 0..10000 estimated %v", got)
	}
}

func TestP2Validation(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewP2(%v) should panic", p)
				}
			}()
			NewP2(p)
		}()
	}
}

// TestDelayStreamingQuantiles: the median and the 99th percentile of a
// stream of 50 000 integer delays.
func TestDelayStreamingQuantiles(t *testing.T) {
	p50, p99 := NewP2(0.50), NewP2(0.99)
	if p50.Value() != 0 || p99.Value() != 0 {
		t.Fatal("empty streaming quantiles should be 0")
	}
	rng := rand.New(rand.NewSource(31))
	var raw []float64
	for k := 0; k < 50000; k++ {
		v := float64(rng.Intn(1000))
		raw = append(raw, v)
		p50.Add(v)
		p99.Add(v)
	}
	for _, c := range []struct {
		name string
		est  *P2
		p    float64
	}{{"Median", p50, 0.50}, {"P99", p99, 0.99}} {
		exact := exactQuantile(raw, c.p)
		if math.Abs(c.est.Value()-exact) > 0.05*exact+5 {
			t.Fatalf("%s %v vs exact %v", c.name, c.est.Value(), exact)
		}
	}
}
