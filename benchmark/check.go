package main

import (
	"bytes"
	"encoding/json"

	"sprinklers/internal/experiment"
)

// studyOutput is everything one study run hands the checker.
type studyOutput struct {
	Spec    experiment.Spec
	Results []experiment.PointResult
	// Err is the error RunStudy or Client.Run returned; a study that ended
	// in any state but finished returns one.
	Err error
	// Want holds the marshalled reference result of every point, in grid
	// order: the first local run of the same spec. Nil for that first run.
	Want [][]byte
	// MustNotSimulate marks a resubmission against a filled cache, where
	// Slots (the slots simulated while the study ran) has to be zero.
	MustNotSimulate bool
	Slots           int64
}

// marshalPoints renders each point the way a results file line does.
func marshalPoints(results []experiment.PointResult) [][]byte {
	out := make([][]byte, len(results))
	for i, r := range results {
		b, err := json.Marshal(r)
		if err != nil {
			panic("benchmark: point result not marshalable: " + err.Error())
		}
		out[i] = b
	}
	return out
}

// check counts the grid points of one study and how many of them failed.
// Simulated statistics are deterministic for a seed, so correctness is exact
// identity with the reference; a point also fails when its study errored,
// when it is missing, when an order-preserving architecture reordered, when
// more was delivered than offered, or when a cache-warm study simulated.
// The benchmark's specs never relabel a series, so a point's algorithm label
// is its registered name.
func check(o studyOutput) (attempted, failed int) {
	spec := o.Spec.WithDefaults()
	keys := spec.Points()
	attempted = len(keys)
	if o.Err != nil || (o.MustNotSimulate && o.Slots > 0) {
		return attempted, attempted
	}
	got := marshalPoints(o.Results)
	for i, key := range keys {
		switch {
		case i >= len(o.Results):
			failed++
		case o.Results[i].PointKey != key:
			failed++
		case key.Algorithm.OrderPreserving() && o.Results[i].Reordered > 0:
			failed++
		case o.Results[i].Throughput > 1:
			failed++
		case o.Want != nil && (i >= len(o.Want) || !bytes.Equal(got[i], o.Want[i])):
			failed++
		}
	}
	return attempted, failed
}
