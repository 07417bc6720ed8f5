package stats

import (
	"bytes"
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
		{1024, 0}, // exactly 2^10 -> first bucket
		{1025, 1}, // just over -> second
		{2048, 1}, // 2^11 upper bound inclusive
		{2049, 2},
		{1 << 36, histBuckets - 2}, // largest finite bound
		{1<<36 + 1, histBuckets - 1},
		{1 << 62, histBuckets - 1}, // +Inf bucket
	}
	for _, c := range cases {
		if got := histBucketIndex(c.ns); got != c.want {
			t.Errorf("histBucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
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

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second) // must not panic
	if h.Count() != 0 || h.SumSeconds() != 0 {
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
