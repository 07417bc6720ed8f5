package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sprinklers/internal/experiment"
)

// minRounds is how many times a measuring pass sets the environment up at
// least, so set-up time is a median and not one reading.
const minRounds = 3

// passConfig is what one pass over a workload needs to know.
type passConfig struct {
	seed      int64
	scale     float64
	seconds   float64 // measure until this much study time has been timed
	minRounds int
	tmp       string // directory the rounds' working directories go under
	// refs, when set, are the reference results an earlier pass over the same
	// specs already established (sampled.refs), so they are not recomputed.
	refs [][][]byte
}

// studyRunner runs one timed study in a round's environment. The untraced
// pass uses env.run itself; the traced pass substitutes instrumented calls.
type studyRunner func(ctx context.Context, e env, spec experiment.Spec) ([]experiment.PointResult, error)

func plainRun(ctx context.Context, e env, spec experiment.Spec) ([]experiment.PointResult, error) {
	return e.run(ctx, spec)
}

// sampled is what a pass measured: one entry per timed study, one set-up
// time per round, and the checker's verdict on every study's output.
type sampled struct {
	walls     []float64 // s per study
	allocs    []float64 // MB allocated per study
	setups    []float64 // s per round
	attempted int
	failed    int
	// first is the first timed result of every spec: the reference later
	// studies of the same spec must match byte for byte.
	first [][]experiment.PointResult
	// refs are the marshalled reference results per spec the pass ended with.
	refs [][][]byte
	// work and base are the environments' work counters summed over the
	// rounds, read after the timed studies and before them.
	work, base experiment.CounterSnapshot
	// ckptBytes is the size of the last study's checkpoint file.
	ckptBytes int64
}

func (s *sampled) studies() int { return len(s.walls) }

// perStudy is one work counter's count per timed study. Every study of a
// workload does the same counted work, so the division is exact.
func (s *sampled) perStudy(field func(experiment.CounterSnapshot) int64) float64 {
	return float64(field(s.work)-field(s.base)) / float64(s.studies())
}

func slotsSimulated(c experiment.CounterSnapshot) int64 { return c.SlotsSimulated }

// references computes, for the workloads whose studies leave the process,
// the results the same specs give when run locally, point by point.
func references(ctx context.Context, w workload, specs []experiment.Spec) ([][][]byte, error) {
	if w.kind != kindRemote && w.kind != kindCluster {
		return make([][][]byte, len(specs)), nil
	}
	refs := make([][][]byte, len(specs))
	for k, spec := range specs {
		res, err := experiment.RunStudy(ctx, spec, experiment.StudyConfig{Parallelism: w.par})
		if err != nil {
			return nil, fmt.Errorf("local reference for %s: %w", spec.Name, err)
		}
		refs[k] = marshalPoints(res)
	}
	return refs, nil
}

// measure is the benchmark's one measuring loop. Each round sets the
// workload's environment up (timed as set-up), runs every spec through run
// with a clock and an allocation reading around each study, checks the
// output, and tears the environment down. Rounds repeat until cfg.seconds
// of study time have been timed and cfg.minRounds rounds have run.
func measure(ctx context.Context, w workload, cfg passConfig, par int, fo fleetOpts,
	prepare func(*round), run studyRunner) (*sampled, error) {
	specs := w.specs(cfg.seed, cfg.scale)
	refs := cfg.refs
	if refs == nil {
		var err error
		if refs, err = references(ctx, w, specs); err != nil {
			return nil, err
		}
	}
	s := &sampled{first: make([][]experiment.PointResult, len(specs)), refs: refs}
	passes := scaled(w.passes, cfg.scale, 1)
	var timed time.Duration
	for n := 0; n < cfg.minRounds || timed.Seconds() < cfg.seconds; n++ {
		dir, err := os.MkdirTemp(cfg.tmp, "round-")
		if err != nil {
			return nil, err
		}
		// Collect the previous round's garbage now, not inside a timed study.
		runtime.GC()
		t0 := time.Now()
		r, err := setupRound(ctx, w, dir, specs, par, fo)
		if err != nil {
			os.RemoveAll(dir) //nolint:errcheck // the set-up error is the one to report
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		if prepare != nil {
			prepare(r)
		}
		for k, res := range r.fill {
			if refs[k] == nil {
				refs[k] = marshalPoints(res)
			}
		}
		s.base = s.base.Add(r.env.counters())
		for p := 0; p < passes; p++ {
			for k, spec := range specs {
				before := slotsSimulated(r.env.counters())
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				t0 := time.Now()
				res, err := run(ctx, r.env, spec)
				wall := time.Since(t0)
				runtime.ReadMemStats(&m1)
				r.env.tidy()
				slots := slotsSimulated(r.env.counters()) - before

				timed += wall
				s.walls = append(s.walls, wall.Seconds())
				s.allocs = append(s.allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
				a, f := check(studyOutput{
					Spec: spec, Results: res, Err: err, Want: refs[k],
					MustNotSimulate: w.kind == kindWarm, Slots: slots,
				})
				s.attempted += a
				s.failed += f
				if err != nil {
					fmt.Fprintf(os.Stderr, "%s: study %s: %v\n", w.Name, spec.Name, err)
				}
				if s.first[k] == nil && err == nil {
					s.first[k] = res
					if refs[k] == nil {
						refs[k] = marshalPoints(res)
					}
				}
			}
		}
		s.work = s.work.Add(r.env.counters())
		if le, ok := r.env.(*localEnv); ok {
			s.ckptBytes = le.ckptBytes
		}
		cerr := r.env.close()
		if err := os.RemoveAll(dir); err != nil && cerr == nil {
			cerr = err
		}
		if cerr != nil {
			return nil, fmt.Errorf("%s: tear-down: %w", w.Name, cerr)
		}
	}
	return s, nil
}

// resultsDigest is the SHA-256 of the workload's marshalled results: the
// first result of every spec, in spec order.
func resultsDigest(first [][]experiment.PointResult) string {
	h := sha256.New()
	for _, res := range first {
		b, err := json.Marshal(res)
		if err != nil {
			panic("benchmark: results not marshalable: " + err.Error())
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// endToEndMetrics reduces a pass to the three gated numbers.
func endToEndMetrics(s *sampled) metricSet {
	return metricSet{
		"study_wall_s": median(s.walls),
		"alloc_mb":     median(s.allocs),
		"setup_s":      median(s.setups),
	}
}
