// Package benchsnap measures the canonical per-slot stepping benchmarks
// with testing.Benchmark and serializes them as a machine-readable
// snapshot, so performance is a reviewable artifact (BENCH_10.json) and a
// CI gate instead of a claim in a commit message.
//
// The snapshot records, per switch size, the ns/op of one slot step, the
// steady-state allocations per slot, and the derived slots/sec. Compare
// flags any step or source point whose ns/op regressed beyond a tolerance
// versus a committed baseline.
package benchsnap

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"sprinklers/internal/core"
	"sprinklers/internal/experiment"
	"sprinklers/internal/sim"
	"sprinklers/internal/traffic"
)

// Point is one measured benchmark point.
type Point struct {
	// Name identifies the point, e.g. "step/N-1024/P-1".
	Name string `json:"name"`
	// N is the switch size. Parallelism is 1 on the timing-gated step and
	// source points and 0 on the ungated study point; the name's "P-1"
	// suffix and the field stay so committed snapshots keep loading and
	// matching by name.
	N           int `json:"n"`
	Parallelism int `json:"parallelism"`
	// NsPerOp is the wall time of one slot step (arrivals + Step).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is the steady-state heap allocations per slot; the
	// engine's contract is 0. At the largest size the backlog high-water
	// mark can still creep during the measured window, so an occasional
	// residual FIFO doubling may round this up to 1 there.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// SlotsPerSec is 1e9/NsPerOp, the simulation throughput.
	SlotsPerSec float64 `json:"slots_per_sec"`
	// SlotsSimulated and DenseSlots are set only on study points: the
	// slots the adaptive study actually simulated versus the slots a dense
	// study over the same final grid would have — the measured work saving.
	SlotsSimulated int64 `json:"slots_simulated,omitempty"`
	DenseSlots     int64 `json:"dense_slots,omitempty"`
}

// Snapshot is the machine-readable benchmark artifact.
type Snapshot struct {
	// Schema versions the JSON layout.
	Schema int `json:"schema"`
	// GoVersion and CPUs document the measuring machine: comparisons
	// across different machines are noise.
	GoVersion string  `json:"go_version"`
	CPUs      int     `json:"cpus"`
	Points    []Point `json:"points"`
}

// Config selects what Collect measures.
type Config struct {
	// Sizes is the switch-size axis.
	Sizes []int
	// Warmup overrides the default warmup of 12*N slots when positive.
	Warmup int
	// Study adds the adaptive-vs-dense study point: the adaptive-smoke
	// builtin run end to end, recording ns per simulated slot plus the
	// slots simulated versus the dense-grid equivalent.
	Study bool
}

// Collect measures every configured point. It is deliberately sequential:
// one point at a time, each on a freshly built switch stepped past its
// FIFO-growth transient, so points never contend with each other.
func Collect(cfg Config) (*Snapshot, error) {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{256, 1024, 4096}
	}
	sort.Ints(cfg.Sizes)
	snap := &Snapshot{
		Schema:    1,
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}
	for _, n := range cfg.Sizes {
		snap.Points = append(snap.Points, measure(n, cfg.Warmup))
		// Each point holds a multi-gigabyte center stage at large N;
		// release it before building the next one.
		runtime.GC()
	}
	snap.Points = append(snap.Points, measureSource(1024))
	if cfg.Study {
		pt, err := measureStudy()
		if err != nil {
			return nil, err
		}
		snap.Points = append(snap.Points, pt)
	}
	return snap, nil
}

// measureStudy runs the adaptive-smoke builtin end to end and derives a
// study-level point: ns per simulated slot (study overhead — refinement,
// calibration, early-stop bookkeeping — amortized over the slots actually
// stepped), plus the slots-simulated versus dense-equivalent comparison.
// The point is recorded with Parallelism 0 so Compare never gates its
// timing, and AllocsPerOp 0 because a study allocates freely by design.
func measureStudy() (Point, error) {
	spec, err := experiment.BuiltinSpec("adaptive-smoke")
	if err != nil {
		return Point{}, err
	}
	norm := spec.WithDefaults()
	var ctr experiment.Counters
	start := time.Now()
	results, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{Counters: &ctr})
	if err != nil {
		return Point{}, err
	}
	elapsed := time.Since(start)
	slots := ctr.SlotsSimulated.Load()
	if slots <= 0 {
		return Point{}, fmt.Errorf("benchsnap: study simulated no slots")
	}
	dense := int64(len(results)) * int64(norm.Replicas) * int64(norm.Slots+norm.Warmup)
	ns := float64(elapsed.Nanoseconds()) / float64(slots)
	return Point{
		Name:           fmt.Sprintf("study/adaptive-vs-dense/N-%d", norm.Sizes[0]),
		N:              norm.Sizes[0],
		Parallelism:    0,
		NsPerOp:        ns,
		SlotsPerSec:    1e9 / ns,
		SlotsSimulated: slots,
		DenseSlots:     dense,
	}, nil
}

// measureSource times arrival generation alone at size n — the other half
// of the simulation hot path, and the per-slot floor no engine change can
// step under.
func measureSource(n int) Point {
	m := traffic.Uniform(n, 0.9)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(1)))
	sink := func(sim.Packet) {}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Next(sim.Slot(i), sink)
		}
	})
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	return Point{
		Name:        fmt.Sprintf("source/N-%d", n),
		N:           n,
		Parallelism: 1,
		NsPerOp:     ns,
		AllocsPerOp: res.AllocsPerOp(),
		SlotsPerSec: 1e9 / ns,
	}
}

// measure builds a warmed n-port gated Sprinklers switch and times one slot
// per benchmark iteration. The build mirrors the repo's
// BenchmarkSizeSweepStep: uniform Bernoulli load 0.9 with explicit size-1
// stripes, so the steady state arrives within ~12N slots (Eq. 1 sizing at
// this load would need an O(N^2) transient).
func measure(n, warmup int) Point {
	sw := core.MustNew(core.Config{
		N:                 n,
		DefaultStripeSize: 1,
		Rand:              rand.New(rand.NewSource(1)),
	})
	m := traffic.Uniform(n, 0.9)
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(1)))
	arrive := sw.Arrive
	if warmup <= 0 {
		warmup = 12 * n
	}
	for i := 0; i < warmup; i++ {
		src.Next(sw.Now(), arrive)
		sw.Step(nil)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Next(sw.Now(), arrive)
			sw.Step(nil)
		}
	})
	ns := float64(res.T.Nanoseconds()) / float64(res.N)
	return Point{
		Name:        fmt.Sprintf("step/N-%d/P-1", n),
		N:           n,
		Parallelism: 1,
		NsPerOp:     ns,
		AllocsPerOp: res.AllocsPerOp(),
		SlotsPerSec: 1e9 / ns,
	}
}

// Load reads a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchsnap: %s: %w", path, err)
	}
	return &s, nil
}

// Save writes a snapshot file with stable formatting, so committed
// snapshots diff cleanly.
func (s *Snapshot) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Compare checks fresh against a committed baseline and returns one
// message per violation. Only points with Parallelism 1 gate ns/op, but a
// steady-state allocation regression fails on every point, because the
// zero-allocs contract is machine-independent.
func Compare(baseline, fresh *Snapshot, tolerance float64) []string {
	base := map[string]Point{}
	for _, pt := range baseline.Points {
		base[pt.Name] = pt
	}
	var violations []string
	for _, pt := range fresh.Points {
		ref, ok := base[pt.Name]
		if !ok {
			continue // new point: nothing to regress against
		}
		if pt.AllocsPerOp > ref.AllocsPerOp {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op, baseline %d", pt.Name, pt.AllocsPerOp, ref.AllocsPerOp))
		}
		if pt.Parallelism != 1 {
			continue
		}
		if limit := ref.NsPerOp * (1 + tolerance); pt.NsPerOp > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.0f%%",
				pt.Name, pt.NsPerOp, ref.NsPerOp, 100*tolerance))
		}
	}
	return violations
}
