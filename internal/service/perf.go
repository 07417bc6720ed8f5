package service

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"

	"sprinklers/internal/experiment"
)

// The perf endpoint is the one-stop performance view of a daemon: how much
// work it has done (daemon-wide and per study — slots simulated, points
// refined, replicas early-stopped, slots saved), and how the binary it is
// running is supposed to perform (the committed BENCH_*.json snapshots
// found in the configured bench directory). Operators diff the two: a
// daemon whose live slot throughput disagrees with its committed snapshot
// is running on starved hardware or a regressed build.

// PerfStudy is one study's row in the perf response.
type PerfStudy struct {
	StudyStatus
	Counters experiment.CounterSnapshot `json:"counters"`
}

// PerfBench is one committed benchmark snapshot file, embedded verbatim.
type PerfBench struct {
	File     string          `json:"file"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// PerfResponse is the wire form of GET /api/v1/perf.
type PerfResponse struct {
	Counters experiment.CounterSnapshot `json:"counters"`
	Studies  []PerfStudy                `json:"studies"`
	Bench    []PerfBench                `json:"bench"`
}

// Perf assembles the perf view: daemon-wide counters, every known study
// with its private counters, and the BENCH_*.json snapshots on disk.
func (s *Server) Perf() PerfResponse {
	resp := PerfResponse{
		Counters: s.TotalCounters(),
		Studies:  []PerfStudy{},
		Bench:    []PerfBench{},
	}

	s.mu.Lock()
	for _, st := range s.studies {
		resp.Studies = append(resp.Studies, PerfStudy{
			StudyStatus: st.Status(),
			Counters:    st.counters.Snapshot(),
		})
	}
	s.mu.Unlock()
	sort.Slice(resp.Studies, func(i, j int) bool { return resp.Studies[i].ID < resp.Studies[j].ID })

	files, _ := filepath.Glob(filepath.Join(s.benchDir, "BENCH_*.json")) //nolint:errcheck // only fails on a bad pattern
	sort.Strings(files)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil || !json.Valid(raw) {
			s.log.Warn("perf: skipping snapshot", "file", f, "reason", "unreadable or invalid JSON")
			continue
		}
		resp.Bench = append(resp.Bench, PerfBench{File: filepath.Base(f), Snapshot: raw})
	}
	return resp
}

func (s *Server) handlePerf(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Perf())
}
