package stats

import (
	"bytes"
	"flag"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistBucketIndex(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{1024, 0},       // exactly 2^10 -> first cell
		{1025, 1},       // just over -> first cell of the next octave
		{1024 + 128, 1}, // its top, inclusive
		{1024 + 129, 2},
		{2048, 8}, // 2^11: the last cell of its octave, exposed bound 1
		{2049, 9},
		{1 << 36, (histBuckets - 2) << histSub}, // largest exposed bound
		{1<<36 + 1, (histBuckets-2)<<histSub + 1},
		{math.MaxInt64, histCells - 1},
	}
	for _, c := range cases {
		if got := histBucketIndex(c.ns); got != c.want {
			t.Errorf("histBucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestCellBoundsTileTheLayout: every cell's bound maps back to that cell
// and one past it to the next, so the cells tile [0, MaxInt64] with no gap
// or overlap, and each bound is within 9/8 of its cell's lower end.
func TestCellBoundsTileTheLayout(t *testing.T) {
	for i := 0; i < histCells; i++ {
		b := cellBound(i)
		if got := histBucketIndex(b); got != i {
			t.Fatalf("cell %d: bound %d maps to cell %d", i, b, got)
		}
		if i == histCells-1 {
			if b != math.MaxInt64 {
				t.Fatalf("last cell bound = %d, want MaxInt64", b)
			}
			break
		}
		if got := histBucketIndex(b + 1); got != i+1 {
			t.Fatalf("cell %d: bound+1 = %d maps to cell %d", i, b+1, got)
		}
		if next := cellBound(i + 1); float64(next) > float64(b)*9/8 {
			t.Fatalf("cell %d: (%d, %d] is wider than 1/8", i+1, b, next)
		}
	}
}

// TestQuantileWithinOneEighth checks Quantile against a sorted-sample
// oracle: for log-uniform samples from 1 µs to 10 min, every q-quantile
// lies between the exact order statistic of rank ⌈q·n⌉ and 9/8 of it.
func TestQuantileWithinOneEighth(t *testing.T) {
	lo, hi := math.Log(float64(time.Microsecond)), math.Log(float64(10*time.Minute))
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{1, 7, 100, 10_000} {
			var h Histogram
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(math.Exp(lo + rng.Float64()*(hi-lo)))
				h.Observe(time.Duration(xs[i]))
			}
			slices.Sort(xs)
			for _, q := range []float64{0.5, 0.95, 0.99} {
				exact := xs[int(math.Ceil(q*float64(n)))-1]
				d, cnt := h.Quantile(q)
				if got := int64(d); got < exact || float64(got) > float64(exact)*9/8 || cnt != int64(n) {
					t.Errorf("seed %d n %d: Quantile(%v) = %d over %d samples, exact %d", seed, n, q, got, cnt, exact)
				}
			}
		}
	}
}

// TestDelayStreamingQuantiles: the median and the 99th percentile of a
// stream of 50 000 delays of whole microseconds, ties included.
func TestDelayStreamingQuantiles(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(31))
	raw := make([]time.Duration, 50000)
	for k := range raw {
		raw[k] = time.Duration(1+rng.Intn(1000)) * time.Microsecond
		h.Observe(raw[k])
	}
	slices.Sort(raw)
	for _, q := range []float64{0.50, 0.99} {
		exact := raw[int(math.Ceil(q*float64(len(raw))))-1]
		if got, _ := h.Quantile(q); got < exact || got > exact*9/8 {
			t.Errorf("Quantile(%v) = %v, exact %v", q, got, exact)
		}
	}
}

// TestQuantileCappedAtMax: where the rank lands on the largest
// observation, Quantile reads it exactly rather than its cell's bound.
func TestQuantileCappedAtMax(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{3 * time.Millisecond, 5 * time.Millisecond, 2024 * time.Millisecond} {
		h.Observe(d)
	}
	if got, _ := h.Quantile(0.95); got != 2024*time.Millisecond {
		t.Errorf("Quantile(0.95) = %v, want the largest observation 2.024s", got)
	}
	if got, _ := h.Quantile(0.5); got < 5*time.Millisecond || got > 5*time.Millisecond*9/8 {
		t.Errorf("Quantile(0.5) = %v, want the 5ms observation's cell", got)
	}
}

// TestQuantileEdges: an empty histogram reads 0, and q = 0 and q = 1 read
// the smallest and the largest observation's cells.
func TestQuantileEdges(t *testing.T) {
	var h Histogram
	if got, n := h.Quantile(0.5); got != 0 || n != 0 {
		t.Fatalf("empty Quantile = %v over %d samples, want 0 over 0", got, n)
	}
	h.Observe(3 * time.Millisecond)
	h.Observe(time.Duration(math.MaxInt64))
	if got, _ := h.Quantile(0); got < 3*time.Millisecond || got > 3*time.Millisecond*9/8 {
		t.Errorf("Quantile(0) = %v, want the smallest observation's cell", got)
	}
	if got, _ := h.Quantile(1); got != time.Duration(math.MaxInt64) {
		t.Errorf("Quantile(1) = %v, want MaxInt64", got)
	}
}

func TestHistogramObserveAndExposition(t *testing.T) {
	h := NewHistogram("test_seconds", "test histogram")
	h.Observe(500 * time.Nanosecond)  // bucket 0
	h.Observe(3 * time.Microsecond)   // bucket 2 (2.048..4.096us)
	h.Observe(100 * time.Millisecond) // high bucket
	h.Observe(200 * time.Second)      // +Inf
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}

	var buf bytes.Buffer
	h.WriteProm(&buf)
	out := buf.String()
	if !strings.Contains(out, "# HELP test_seconds test histogram\n") ||
		!strings.Contains(out, "# TYPE test_seconds histogram\n") {
		t.Fatalf("missing HELP/TYPE lines:\n%s", out)
	}

	// Parse bucket lines; they must be cumulative, monotone, and end at
	// +Inf == _count.
	var last int64 = -1
	var infCount, count int64 = -1, -1
	var sum float64 = -1
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "test_seconds_bucket{"):
			buckets++
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value in %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("bucket counts not monotone at %q (prev %d)", line, last)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				infCount = v
			}
		case strings.HasPrefix(line, "test_seconds_sum "):
			var err error
			sum, err = strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				t.Fatal(err)
			}
		case strings.HasPrefix(line, "test_seconds_count "):
			var err error
			count, err = strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if buckets != histBuckets {
		t.Fatalf("emitted %d bucket lines, want %d", buckets, histBuckets)
	}
	if infCount != 4 || count != 4 {
		t.Fatalf("+Inf bucket %d / _count %d, want 4 / 4", infCount, count)
	}
	wantSum := 500e-9 + 3e-6 + 100e-3 + 200.0
	if sum < wantSum*0.999 || sum > wantSum*1.001 {
		t.Fatalf("_sum = %g, want ~%g", sum, wantSum)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/histogram.prom from WriteProm")

// TestWritePromGolden pins WriteProm's bytes for a fixed set of
// observations: zero and a negative duration (read as zero), every exposed
// bound 2^10 … 2^36 ns exactly and one nanosecond past it, and durations
// past the last finite bound, which fold into +Inf.
func TestWritePromGolden(t *testing.T) {
	h := NewHistogram("golden_seconds", "golden histogram")
	h.Observe(0)
	h.Observe(-time.Second)
	for k := 10; k <= 36; k++ {
		b := time.Duration(1) << k
		h.Observe(b)
		h.Observe(b + 1)
	}
	h.Observe(2 * time.Minute)
	h.Observe(10 * time.Minute)
	h.Observe(time.Hour)
	var buf bytes.Buffer
	h.WriteProm(&buf)
	const path = "testdata/histogram.prom"
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("WriteProm differs from %s:\n%s\nwant:\n%s", path, got, want)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if q, n := h.Quantile(0.95); h.Count() != 0 || h.SumSeconds() != 0 || q != 0 || n != 0 {
		t.Fatal("nil histogram must read as empty")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench_seconds", "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
