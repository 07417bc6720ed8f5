// Worker-side load accounting tests: the job-slot admission queue, the
// load gauges on /metrics, the slots/sec EWMA, and the join loop's
// registration.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/faultinject"
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

// slotsPerSec reads the daemon's slots/sec EWMA gauge.
func slotsPerSec(srv *Server) float64 { return math.Float64frombits(srv.simRate.Load()) }

// TestQueuedJobLoadGauges: with one execution slot occupied, a second job
// queues, and the load gauges must track the whole episode — queue 1 and
// inflight 1 while the slot is busy, all zero once both jobs finish.
func TestQueuedJobLoadGauges(t *testing.T) {
	srv, base := newLoadTestServer(t, Options{JobSlots: 1, Fault: faultinject.NewPlan().DelayJobs(300 * time.Millisecond)})
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

	if q, in := srv.queued.Load(), srv.inflight.Load(); q != 1 || in != 1 {
		t.Errorf("queue %d / inflight %d, want 1 / 1", q, in)
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

	if q, in := srv.queued.Load(), srv.inflight.Load(); q != 0 || in != 0 {
		t.Errorf("after drain queue %d / inflight %d, want 0 / 0", q, in)
	}
	if got := slotsPerSec(srv); got <= 0 {
		t.Errorf("SlotsPerSec = %g after a completed job, want > 0", got)
	}
}

// TestSimRateEWMA: the first observation seeds the rate; later ones blend
// 70/30.
func TestSimRateEWMA(t *testing.T) {
	srv, _ := newLoadTestServer(t, Options{})
	if got := slotsPerSec(srv); got != 0 {
		t.Fatalf("initial SlotsPerSec = %g, want 0", got)
	}
	srv.observeSimRate(1000, time.Second)
	if got := slotsPerSec(srv); math.Abs(got-1000) > 1e-9 {
		t.Errorf("after first sample SlotsPerSec = %g, want 1000", got)
	}
	srv.observeSimRate(2000, time.Second)
	want := 0.7*1000 + 0.3*2000
	if got := slotsPerSec(srv); math.Abs(got-want) > 1e-9 {
		t.Errorf("after second sample SlotsPerSec = %g, want %g", got, want)
	}
	srv.observeSimRate(0, time.Second) // degenerate samples are dropped
	srv.observeSimRate(1000, 0)
	if got := slotsPerSec(srv); math.Abs(got-want) > 1e-9 {
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
		"sprinklerd_peer_cache_fill_total",
		"sprinklerd_job_queue_depth",
		"sprinklerd_jobs_inflight",
		"sprinklerd_sim_slots_per_sec",
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}

// TestJoinClusterWarnsWhenRefused: a registration can be refused — by a
// daemon that is no coordinator (404) or by a coordinator that cannot dial
// the advertised URL (400). The worker must say so in its log, naming the
// status, instead of dropping the answer silently.
func TestJoinClusterWarnsWhenRefused(t *testing.T) {
	_, plain := newLoadTestServer(t, Options{})
	coord := cluster.New(cluster.Options{})
	_, coordinator := newLoadTestServer(t, Options{Cluster: coord})
	for _, tc := range []struct {
		name, to, self string
		want           []string
	}{
		{"not-a-coordinator", plain, "", []string{"404", "not a coordinator"}},
		{"undialable-self", coordinator, "127.0.0.1:9001", []string{"400", "bad url"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf lockedBuffer
			srv, self := newLoadTestServer(t, Options{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
			if tc.self != "" {
				self = tc.self
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.JoinCluster(ctx, tc.to, self, time.Hour)
			}()
			waitFor(t, "the refused-registration warning", func() bool {
				return strings.Contains(buf.String(), "registration refused")
			})
			cancel()
			<-done
			out := buf.String()
			for _, want := range append([]string{"level=WARN"}, tc.want...) {
				if !strings.Contains(out, want) {
					t.Errorf("join warning lacks %q:\n%s", want, out)
				}
			}
		})
	}
	if n := coord.Snapshot().WorkersTotal; n != 0 {
		t.Errorf("coordinator registered %d workers from refused joins, want 0", n)
	}
}

// lockedBuffer is a bytes.Buffer safe for the daemon's goroutines to log
// into while the test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
