package main

import (
	"context"
	"errors"
	"testing"

	"sprinklers/internal/experiment"
)

// TestCheck drives the one output checker with a good study and with each
// way a study's output can be wrong; every wrong one must raise failed.
func TestCheck(t *testing.T) {
	spec := experiment.Spec{
		Name:       "check",
		Algorithms: experiment.Algs(experiment.LoadBalanced, experiment.Sprinklers),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      []float64{0.5, 0.8},
		Sizes:      []int{8},
		Slots:      400,
		Warmup:     100,
		Seed:       3,
	}
	good, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	const points = 4
	const sprinklersPoint = 2 // grid order: load-balanced 0.5, 0.8, sprinklers 0.5, 0.8
	if len(good) != points || good[sprinklersPoint].Algorithm != experiment.Sprinklers {
		t.Fatalf("unexpected grid: %d points, point %d is %s", len(good), sprinklersPoint, good[sprinklersPoint].Algorithm)
	}
	want := marshalPoints(good)
	tamper := func(i int, f func(*experiment.PointResult)) []experiment.PointResult {
		out := append([]experiment.PointResult(nil), good...)
		f(&out[i])
		return out
	}
	oneByteOff := func() [][]byte {
		out := append([][]byte(nil), want...)
		b := append([]byte(nil), out[1]...)
		b[len(b)-2] ^= 1
		out[1] = b
		return out
	}

	cases := []struct {
		name   string
		out    studyOutput
		failed int
	}{
		{"first local run", studyOutput{Results: good}, 0},
		{"identical to the reference", studyOutput{Results: good, Want: want}, 0},
		{"warm study that simulated nothing", studyOutput{Results: good, Want: want, MustNotSimulate: true}, 0},
		{"baseline may reorder", studyOutput{
			Results: tamper(0, func(r *experiment.PointResult) { r.Reordered = 1 })}, 0},
		{"sprinklers reordered", studyOutput{
			Results: tamper(sprinklersPoint, func(r *experiment.PointResult) { r.Reordered = 1 })}, 1},
		{"delivered more than offered", studyOutput{
			Results: tamper(1, func(r *experiment.PointResult) { r.Throughput = 1.01 })}, 1},
		{"truncated result set", studyOutput{Results: good[:points-1], Want: want}, 1},
		{"no results at all", studyOutput{Want: want}, points},
		{"point out of grid order", studyOutput{
			Results: tamper(0, func(r *experiment.PointResult) { r.Load = 0.8 })}, 1},
		{"warm study that simulated", studyOutput{Results: good, Want: want, MustNotSimulate: true, Slots: 500}, points},
		{"remote result one byte off the local one", studyOutput{Results: good, Want: oneByteOff()}, 1},
		{"study ended with an error", studyOutput{Results: good, Err: errors.New("study canceled")}, points},
	}
	for _, c := range cases {
		c.out.Spec = spec
		attempted, failed := check(c.out)
		if attempted != points || failed != c.failed {
			t.Errorf("%s: attempted %d failed %d, want %d and %d", c.name, attempted, failed, points, c.failed)
		}
	}
}
