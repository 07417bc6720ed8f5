package service

import (
	"net/http"
	"sort"

	"sprinklers/internal/experiment"
)

// The perf endpoint is the one-stop view of how much work a daemon has
// done, daemon-wide and per study: slots simulated, points refined,
// replicas early-stopped, slots saved.

// perfStudy is one study's row in the perf response.
type perfStudy struct {
	StudyStatus
	Counters experiment.CounterSnapshot `json:"counters"`
}

// perfResponse is the wire form of GET /api/v1/perf.
type perfResponse struct {
	Counters experiment.CounterSnapshot `json:"counters"`
	Studies  []perfStudy                `json:"studies"`
}

// perf assembles the perf view: daemon-wide counters and every known study
// with its private counters.
func (s *Server) perf() perfResponse {
	resp := perfResponse{
		Counters: s.TotalCounters(),
		Studies:  []perfStudy{},
	}

	s.mu.Lock()
	for _, st := range s.studies {
		resp.Studies = append(resp.Studies, perfStudy{
			StudyStatus: st.Status(),
			Counters:    st.counters.Snapshot(),
		})
	}
	s.mu.Unlock()
	sort.Slice(resp.Studies, func(i, j int) bool { return resp.Studies[i].ID < resp.Studies[j].ID })
	return resp
}

func (s *Server) handlePerf(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.perf())
}
