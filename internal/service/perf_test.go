package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sprinklers/internal/experiment"
)

func adaptiveTestSpec(t *testing.T) experiment.Spec {
	t.Helper()
	spec, err := experiment.BuiltinSpec("adaptive-smoke")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestPerfEndpoint: /api/v1/perf serves the daemon-wide counters, one row
// per study with that study's private counters, and nothing else.
func TestPerfEndpoint(t *testing.T) {
	srv, err := New(Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	client := &Client{BaseURL: ts.URL}

	spec := testSpec("perf")
	if _, err := client.Run(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}

	body := []byte(httpGet(t, client, "/api/v1/perf"))
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(body, &keys); err != nil {
		t.Fatal(err)
	}
	_, hasCounters := keys["counters"]
	_, hasStudies := keys["studies"]
	if !hasCounters || !hasStudies || len(keys) != 2 {
		t.Errorf("perf top-level keys = %v, want exactly counters and studies", keys)
	}
	var perf PerfResponse
	if err := json.Unmarshal(body, &perf); err != nil {
		t.Fatal(err)
	}
	if want := int64(spec.NumPoints()); perf.Counters.PointsComputed != want {
		t.Errorf("daemon counters report %d points computed, want %d", perf.Counters.PointsComputed, want)
	}
	if len(perf.Studies) != 1 {
		t.Fatalf("perf lists %d studies, want 1: %+v", len(perf.Studies), perf.Studies)
	}
	st := perf.Studies[0]
	if st.ID != StudyID(spec) || st.State != StateDone {
		t.Errorf("study row = %+v, want done study %s", st.StudyStatus, StudyID(spec))
	}
	if st.Counters.PointsComputed != int64(spec.NumPoints()) || st.Counters.SlotsSimulated == 0 {
		t.Errorf("study counters = %+v, want the study's own work", st.Counters)
	}
}

// TestAdaptiveStudyThroughDaemon: an adaptive study served by the daemon
// returns results byte-identical to a local run, its status total grows
// past the seed grid as refinement inserts points, a replay of its finished
// event stream is exactly the sequence streamed live, and the adaptive
// counters surface in both /api/v1/perf and /metrics.
func TestAdaptiveStudyThroughDaemon(t *testing.T) {
	srv, client := newTestServer(t)
	spec := adaptiveTestSpec(t)

	local, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var live []ProgressEvent
	remote, err := client.Run(context.Background(), spec, func(ev ProgressEvent) {
		live = append(live, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(remote)
	if string(lb) != string(rb) {
		t.Errorf("daemon adaptive results differ from local:\n%s\nvs\n%s", rb, lb)
	}
	for _, from := range []int{0, 5} {
		var replay []ProgressEvent
		if _, err := client.Stream(context.Background(), StudyID(spec), from, func(ev ProgressEvent) {
			replay = append(replay, ev)
		}); err != nil {
			t.Fatal(err)
		}
		want := live[min(from, len(live)):]
		if len(replay) != len(want) {
			t.Fatalf("replay from %d delivered %d events, want %d", from, len(replay), len(want))
		}
		for i, ev := range replay {
			w := want[i]
			if ev.Done != w.Done || ev.Total != w.Total || !reflect.DeepEqual(ev.Point, w.Point) {
				t.Errorf("replay from %d, event %d = %d/%d %v, streamed live as %d/%d %v",
					from, i, ev.Done, ev.Total, ev.Point.PointKey, w.Done, w.Total, w.Point.PointKey)
			}
		}
	}

	status, err := client.Status(context.Background(), StudyID(spec))
	if err != nil {
		t.Fatal(err)
	}
	seed := spec.WithDefaults().NumPoints()
	if status.Total <= seed || status.Done != status.Total {
		t.Errorf("status = %d/%d, want a completed study larger than the %d-point seed grid",
			status.Done, status.Total, seed)
	}

	total := srv.TotalCounters()
	if total.PointsRefined == 0 || total.ReplicasEarlyStopped == 0 || total.SlotsSavedEstimate == 0 {
		t.Errorf("adaptive counters did not surface daemon-wide: %+v", total)
	}
	var perf PerfResponse
	if err := json.Unmarshal([]byte(httpGet(t, client, "/api/v1/perf")), &perf); err != nil {
		t.Fatal(err)
	}
	if len(perf.Studies) != 1 || perf.Studies[0].Counters.PointsRefined == 0 {
		t.Errorf("perf does not attribute refinement to the study: %+v", perf.Studies)
	}
	metrics := httpGet(t, client, "/metrics")
	for _, m := range []string{
		"sprinklerd_points_refined_total", "sprinklerd_replicas_early_stopped_total",
		"sprinklerd_slots_saved_estimate",
	} {
		if !strings.Contains(metrics, m) {
			t.Errorf("/metrics missing %s", m)
		}
	}
}

// TestRetiredCountersSurviveStudyReplacement: restarting a canceled study
// retires its counters instead of dropping them — the daemon-wide totals
// never move backwards.
func TestRetiredCountersSurviveStudyReplacement(t *testing.T) {
	srv, client := newTestServer(t)
	spec := testSpec("retire")
	spec.Slots = 60_000
	spec.Loads = []float64{0.3, 0.5, 0.7, 0.9}

	status, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cancel(context.Background(), status.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if state, _, err := client.Results(ctx, status.ID, true); err != nil || state != StateCanceled {
		t.Fatalf("state %v err %v, want canceled", state, err)
	}
	before := srv.TotalCounters()

	if _, err := client.Submit(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if state, _, err := client.Results(ctx, status.ID, true); err != nil || state != StateDone {
		t.Fatalf("restarted study ended %v err %v, want done", state, err)
	}
	after := srv.TotalCounters()
	if after.SlotsSimulated < before.SlotsSimulated || after.StudiesRun != before.StudiesRun+1 {
		t.Errorf("totals moved backwards across study replacement:\nbefore %+v\nafter  %+v", before, after)
	}
}
