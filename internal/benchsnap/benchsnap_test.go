package benchsnap

import (
	"path/filepath"
	"strings"
	"testing"
)

func snap(points ...Point) *Snapshot {
	return &Snapshot{Schema: 1, GoVersion: "go-test", CPUs: 1, Points: points}
}

func TestCompareGatesSequentialNsAndAllAllocs(t *testing.T) {
	base := snap(
		Point{Name: "step/N-256/P-1", Parallelism: 1, NsPerOp: 1000, AllocsPerOp: 0},
		Point{Name: "step/N-256/P-4", Parallelism: 4, NsPerOp: 500, AllocsPerOp: 0},
	)

	// Within tolerance: no violations.
	fresh := snap(
		Point{Name: "step/N-256/P-1", Parallelism: 1, NsPerOp: 1050, AllocsPerOp: 0},
		Point{Name: "step/N-256/P-4", Parallelism: 4, NsPerOp: 5000, AllocsPerOp: 0},
	)
	if v := Compare(base, fresh, 0.10); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}

	// Sequential ns/op regression beyond tolerance fails; the parallel
	// point's 10x slowdown above did not (timing there is core-dependent).
	fresh.Points[0].NsPerOp = 1200
	v := Compare(base, fresh, 0.10)
	if len(v) != 1 || !strings.Contains(v[0], "step/N-256/P-1") {
		t.Fatalf("want one sequential ns/op violation, got %v", v)
	}

	// An allocation regression fails even at parallelism > 1.
	fresh.Points[0].NsPerOp = 1000
	fresh.Points[1].AllocsPerOp = 2
	v = Compare(base, fresh, 0.10)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Fatalf("want one allocs violation, got %v", v)
	}

	// A point absent from the baseline never gates.
	fresh.Points[1] = Point{Name: "step/N-4096/P-1", Parallelism: 1, NsPerOp: 1e9, AllocsPerOp: 9}
	if v := Compare(base, fresh, 0.10); len(v) != 0 {
		t.Fatalf("new point should not gate, got %v", v)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	s := snap(Point{Name: "step/N-64/P-1", N: 64, Parallelism: 1, NsPerOp: 123.5, AllocsPerOp: 0, SlotsPerSec: 1e9 / 123.5})
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != s.Schema || got.CPUs != s.CPUs || len(got.Points) != 1 || got.Points[0] != s.Points[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
}

// TestMeasureStudyPoint: the study point records a real work saving — the
// adaptive-smoke builtin simulates strictly fewer slots than its dense
// equivalent — and stays ungated (Parallelism 0, zero allocs recorded).
func TestMeasureStudyPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full adaptive study")
	}
	pt, err := measureStudy()
	if err != nil {
		t.Fatal(err)
	}
	if pt.Name != "study/adaptive-vs-dense/N-8" || pt.Parallelism != 0 || pt.AllocsPerOp != 0 {
		t.Errorf("study point identity = %+v, want ungated study/adaptive-vs-dense/N-8", pt)
	}
	if pt.NsPerOp <= 0 || pt.SlotsPerSec <= 0 {
		t.Errorf("study point has non-positive timing: %+v", pt)
	}
	if pt.SlotsSimulated <= 0 || pt.DenseSlots <= pt.SlotsSimulated {
		t.Errorf("study point shows no saving: simulated %d, dense %d", pt.SlotsSimulated, pt.DenseSlots)
	}
}

// TestCollectSmall exercises the full measurement path at a tiny size so
// the harness itself (warmup, JSON fields) is covered without
// benchmark-scale runtime.
func TestCollectSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("measures real benchmarks")
	}
	s, err := Collect(Config{Sizes: []int{16}, Warmup: 200})
	if err != nil {
		t.Fatal(err)
	}
	// 16/P-1 plus the source point.
	if len(s.Points) != 2 {
		t.Fatalf("got %d points, want 2: %+v", len(s.Points), s.Points)
	}
	for _, pt := range s.Points {
		if pt.NsPerOp <= 0 || pt.SlotsPerSec <= 0 {
			t.Fatalf("point %s has non-positive timing: %+v", pt.Name, pt)
		}
	}
}
