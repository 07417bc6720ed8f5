// Worker-side load accounting tests: the job-slot admission queue, the
// heartbeat load report, and the slots/sec EWMA.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newLoadTestServer(t *testing.T, opts Options) (*Server, string) {
	t.Helper()
	opts.CacheDir = t.TempDir()
	srv, err := New(opts)
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
	return srv, ts.URL
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueuedJobLoadReport: with one execution slot occupied, a second job
// queues, and the load report must track the whole episode — queue 1 and
// inflight 1 while the slot is busy, all zero once both jobs finish.
func TestQueuedJobLoadReport(t *testing.T) {
	srv, base := newLoadTestServer(t, Options{JobSlots: 1, JobDelay: 300 * time.Millisecond})
	spec := testSpec("queued-job-load")

	post := func(rep int) chan *http.Response {
		ch := make(chan *http.Response, 1)
		go func() {
			body, _ := json.Marshal(jobFor(spec, 0, rep))
			resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				ch <- nil
				return
			}
			ch <- resp
		}()
		return ch
	}

	ch1 := post(0)
	waitFor(t, "the first job to take the slot", func() bool { return srv.inflight.Load() == 1 })
	ch2 := post(1)
	waitFor(t, "the second job to queue", func() bool { return srv.queued.Load() == 1 })

	if lr := srv.LoadReport(); lr.QueueDepth != 1 || lr.Inflight != 1 {
		t.Errorf("LoadReport = %+v, want queue 1 / inflight 1", lr)
	}

	for i, ch := range []chan *http.Response{ch1, ch2} {
		r := <-ch
		if r == nil {
			t.Fatalf("job %d's request failed outright", i)
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("job %d answered %d, want 200", i, r.StatusCode)
		}
	}

	if lr := srv.LoadReport(); lr.QueueDepth != 0 || lr.Inflight != 0 {
		t.Errorf("LoadReport after drain = %+v, want all zero", lr)
	}
	if got := srv.LoadReport().SlotsPerSec; got <= 0 {
		t.Errorf("SlotsPerSec = %g after a completed job, want > 0", got)
	}
}

// TestSimRateEWMA: the first observation seeds the rate; later ones blend
// 70/30.
func TestSimRateEWMA(t *testing.T) {
	srv, _ := newLoadTestServer(t, Options{})
	if got := srv.LoadReport().SlotsPerSec; got != 0 {
		t.Fatalf("initial SlotsPerSec = %g, want 0", got)
	}
	srv.observeSimRate(1000, time.Second)
	if got := srv.LoadReport().SlotsPerSec; math.Abs(got-1000) > 1e-9 {
		t.Errorf("after first sample SlotsPerSec = %g, want 1000", got)
	}
	srv.observeSimRate(2000, time.Second)
	want := 0.7*1000 + 0.3*2000
	if got := srv.LoadReport().SlotsPerSec; math.Abs(got-want) > 1e-9 {
		t.Errorf("after second sample SlotsPerSec = %g, want %g", got, want)
	}
	srv.observeSimRate(0, time.Second) // degenerate samples are dropped
	srv.observeSimRate(1000, 0)
	if got := srv.LoadReport().SlotsPerSec; math.Abs(got-want) > 1e-9 {
		t.Errorf("degenerate samples moved the rate to %g, want %g", got, want)
	}
}

// TestMetricsExposeSchedulerSeries: the new scheduler counters and worker
// load gauges must render on /metrics.
func TestMetricsExposeSchedulerSeries(t *testing.T) {
	_, base := newLoadTestServer(t, Options{})
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, name := range []string{
		"sprinklerd_speculative_launched_total",
		"sprinklerd_speculative_wasted_total",
		"sprinklerd_job_queue_depth",
		"sprinklerd_jobs_inflight",
		"sprinklerd_sim_slots_per_sec",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}
