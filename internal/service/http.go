package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"sprinklers/internal/experiment"
	"sprinklers/internal/registry"
)

// The HTTP surface. All bodies are JSON unless noted.
//
//	GET  /healthz                       liveness probe ("ok")
//	GET  /metrics                       Prometheus-style text counters and
//	                                    latency histograms
//	GET  /api/v1/version                build/runtime identity (go version,
//	                                    VCS revision, role, node)
//	GET  /api/v1/trace/{study}          merged trace timeline for one study
//	                                    (?format=chrome for Perfetto JSON)
//	GET  /api/v1/perf                   daemon-wide work/cache counters
//	                                    and per-study counters
//	GET  /api/v1/catalog                structured registry catalog
//	                                    (?format=text for the -list form)
//	POST /api/v1/studies                submit a Spec; 200 joins an existing
//	                                    execution, 202 starts a new one
//	GET  /api/v1/studies                statuses of every known study
//	GET  /api/v1/studies/{id}           one study's status + normalized spec
//	GET  /api/v1/studies/{id}/events    SSE per-point progress (?from=N)
//	GET  /api/v1/studies/{id}/results   state + grid-order results
//	                                    (?wait=1 blocks until terminal)
//	GET  /api/v1/studies/{id}/render    text rendering (?format=..., the
//	                                    same ten renderings the CLIs print)
//	POST /api/v1/studies/{id}/cancel    cancel a running study
//
// Cluster endpoints (jobs, CAS, registration) are documented in worker.go.

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/perf", s.handlePerf)
	mux.HandleFunc("GET /api/v1/version", s.handleVersion)
	mux.HandleFunc("GET /api/v1/trace/{study}", s.handleTrace)
	mux.HandleFunc("GET /api/v1/catalog", s.handleCatalog)
	mux.HandleFunc("POST /api/v1/studies", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/studies", s.handleList)
	mux.HandleFunc("GET /api/v1/studies/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/studies/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/studies/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/studies/{id}/render", s.handleRender)
	mux.HandleFunc("POST /api/v1/studies/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/v1/jobs", s.handleJob)
	mux.HandleFunc("GET /api/v1/cas/{key}", s.handleCAS)
	mux.HandleFunc("POST /api/v1/cluster/register", s.handleClusterRegister)
	if s.fault == nil {
		return mux
	}
	// A dead fault plan makes the whole daemon behave like a killed
	// process: every connection — health probes included — is severed
	// before any handler runs, so heartbeats fail and the coordinator's
	// suspect/failover machinery is exercised for real.
	fault := s.fault
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fault.Dead() {
			panic(http.ErrAbortHandler)
		}
		mux.ServeHTTP(w, r)
	})
}

// handleHealthz reports liveness: "ok", or "degraded" (still 200 — the
// process is alive and serving, but every cluster worker is down and
// studies are running on coordinator-local fallback).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.cluster != nil && s.cluster.Degraded() {
		fmt.Fprintln(w, "degraded")
		return
	}
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // the connection is the only failure mode
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		registry.WriteCatalog(w)
		return
	}
	writeJSON(w, http.StatusOK, registry.Catalog())
}

// maxSpecBytes bounds a submitted spec body. Real specs are kilobytes; the
// limit only exists so a runaway client cannot balloon daemon memory.
const maxSpecBytes = 4 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := experiment.ParseSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status, err := s.Submit(spec)
	var verr ValidationError
	switch {
	case errors.As(err, &verr):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case status.Created:
		writeJSON(w, http.StatusAccepted, status)
	default:
		writeJSON(w, http.StatusOK, status)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := s.List()
	sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"studies": list})
}

// studyOr404 resolves the {id} path segment.
func (s *Server) studyOr404(w http.ResponseWriter, r *http.Request) (*study, bool) {
	id := r.PathValue("id")
	st, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown study %q", id))
		return nil, false
	}
	return st, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.studyOr404(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": st.Status(),
		"spec":   st.Spec(),
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.studyOr404(w, r)
	if !ok {
		return
	}
	st.cancel()
	writeJSON(w, http.StatusOK, st.Status())
}

// resultsResponse is the wire form of a study's result set.
type resultsResponse struct {
	ID      string                   `json:"id"`
	State   State                    `json:"state"`
	Error   string                   `json:"error,omitempty"`
	Results []experiment.PointResult `json:"results"`
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	st, ok := s.studyOr404(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		st.Wait(r.Context())
	}
	state, results := st.Results()
	status := st.Status()
	if results == nil {
		results = []experiment.PointResult{}
	}
	writeJSON(w, http.StatusOK, resultsResponse{
		ID: st.id, State: state, Error: status.Error, Results: results,
	})
}

// renderFormats lists the render endpoint's formats: every rendering the
// CLI tools produce from a result set.
var renderFormats = []string{
	"curves", "csv", "detail", "trajectory", "trajcsv",
	"markov", "bound", "bound-switchwide",
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	st, ok := s.studyOr404(w, r)
	if !ok {
		return
	}
	state, results := st.Results()
	if state == StateRunning {
		writeError(w, http.StatusConflict,
			fmt.Errorf("study %s is still running (%s); poll /results?wait=1 first", st.id, st.Status().State))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "curves"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var err error
	switch format {
	case "curves":
		experiment.RenderStudyCurves(w, results)
	case "csv":
		err = experiment.RenderStudyCSV(w, results)
	case "detail":
		experiment.RenderStudyDetail(w, results)
	case "trajectory":
		experiment.RenderTrajectory(w, results)
	case "trajcsv":
		err = experiment.RenderTrajectoryCSV(w, results)
	case "markov":
		experiment.RenderMarkovTable(w, results)
	case "bound":
		experiment.RenderBoundTable(w, results, false)
	case "bound-switchwide":
		experiment.RenderBoundTable(w, results, true)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown render format %q (want one of %v)", format, renderFormats))
		return
	}
	if err != nil {
		s.log.Warn("render failed", "study", st.id, "format", format, "err", err)
	}
}

// handleEvents streams per-point progress as Server-Sent Events: one
// `data:` line per recorded point ({"done","total","point"}), then one
// terminal line {"state":...,"error":...} when the study finishes. ?from=N
// resumes the stream after the first N events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st, ok := s.studyOr404(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			from = n
		}
	}
	enc := json.NewEncoder(w)
	emit := func(v any) {
		fmt.Fprint(w, "data: ")
		enc.Encode(v) //nolint:errcheck // detected via r.Context below
		fmt.Fprint(w, "\n")
		if canFlush {
			flusher.Flush()
		}
	}
	for {
		events, state, updated := st.EventsSince(from)
		for _, ev := range events {
			emit(ev)
		}
		from += len(events)
		if state.terminal() {
			status := st.Status()
			emit(map[string]any{"state": state, "error": status.Error})
			return
		}
		select {
		case <-updated:
		case <-r.Context().Done():
			return
		}
	}
}
