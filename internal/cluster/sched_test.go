// White-box scheduler tests: pick fairness and load awareness, report
// staleness, the speculative backup gate, probe suppression, and churn
// under -race. The end-to-end behavior (speculation, byte identity) lives
// in the black-box chaos suite in cluster_test.go.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pickCounts runs n picks and tallies them by worker URL.
func pickCounts(c *Coordinator, n int) map[string]int {
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		if w := c.pick(nil); w != nil {
			counts[w.url]++
		}
	}
	return counts
}

// TestPickRoundRobinFairnessEqualLoad: with no load reports (all loads
// equal) the power-of-two chooser must degrade to exact round-robin —
// every healthy worker chosen exactly once per cycle.
func TestPickRoundRobinFairnessEqualLoad(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	c := New(Options{Workers: urls})
	const cycles = 10
	counts := pickCounts(c, cycles*len(urls))
	for _, u := range urls {
		if counts[u] != cycles {
			t.Errorf("worker %s picked %d times in %d calls, want exactly %d (round-robin ties)",
				u, counts[u], cycles*len(urls), cycles)
		}
	}
}

// TestPickAvoidsDeepestWorker: a worker reporting a deep queue must never
// win a two-choice comparison against an unloaded peer.
func TestPickAvoidsDeepestWorker(t *testing.T) {
	c := New(Options{Workers: []string{"http://a", "http://b", "http://c"}})
	c.HeartbeatLoad("http://c", &LoadReport{QueueDepth: 7, Inflight: 3})
	counts := pickCounts(c, 30)
	if counts["http://c"] != 0 {
		t.Errorf("deepest worker picked %d times, want 0 while peers are idle", counts["http://c"])
	}
	if counts["http://a"] == 0 || counts["http://b"] == 0 {
		t.Errorf("idle workers starved: %v", counts)
	}
}

// TestPickFallsBackToRoundRobinWhenStale: once a load report ages past
// 3x the heartbeat interval it must stop biasing placement, so a worker
// whose reports died (but whose health is fine) still gets work.
func TestPickFallsBackToRoundRobinWhenStale(t *testing.T) {
	c := New(Options{
		Workers:           []string{"http://a", "http://b"},
		HeartbeatInterval: 10 * time.Millisecond,
	})
	c.HeartbeatLoad("http://b", &LoadReport{QueueDepth: 50})
	if counts := pickCounts(c, 10); counts["http://b"] != 0 {
		t.Fatalf("fresh deep report ignored: b picked %d times", counts["http://b"])
	}
	time.Sleep(4 * c.opts.HeartbeatInterval) // past staleAfter
	if counts := pickCounts(c, 10); counts["http://b"] != 5 {
		t.Errorf("stale report still biasing placement: b picked %d of 10, want 5 (round-robin)",
			counts["http://b"])
	}
}

// TestPickPrefersOutstanding: even with no reports at all, the
// coordinator's own in-flight dispatches are a load signal — a worker
// holding outstanding jobs loses the two-choice comparison.
func TestPickPrefersOutstanding(t *testing.T) {
	c := New(Options{Workers: []string{"http://a", "http://b"}})
	wa := c.register("http://a")
	wa.addOutstanding(3)
	if counts := pickCounts(c, 10); counts["http://a"] != 0 {
		t.Errorf("worker with outstanding dispatches picked %d times, want 0", counts["http://a"])
	}
}

// TestPickAvoidReturnsOtherWorker: pick(avoid) must move off the avoided
// worker when any other healthy worker exists, and fall back to it only
// when it is the sole healthy choice.
func TestPickAvoidReturnsOtherWorker(t *testing.T) {
	c := New(Options{Workers: []string{"http://a", "http://b"}})
	wa := c.register("http://a")
	wb := c.register("http://b")
	for i := 0; i < 10; i++ {
		if w := c.pick(wa); w != wb {
			t.Fatalf("pick(avoid=a) = %v, want b", w)
		}
	}
	wb.fail(1)
	if w := c.pick(wa); w != wa {
		t.Errorf("pick(avoid=a) with b suspect = %v, want the avoided sole survivor a", w)
	}
}

// TestBackupOnlyOntoIdleWorker: a speculative backup launches only onto a
// different healthy worker with nothing outstanding, queued or running —
// never at equal load, never behind a lighter peer's own work, never on a
// single-worker fleet — and looking for one leaves pick's round-robin
// cursor where it was.
func TestBackupOnlyOntoIdleWorker(t *testing.T) {
	c := New(Options{Workers: []string{"http://a", "http://b"}})
	wa := c.register("http://a")
	wb := c.register("http://b")
	wa.addOutstanding(1) // the primary dispatch itself
	wb.addOutstanding(1)
	rr := c.rr
	for i := 0; i < 4; i++ {
		if bw := c.backupFor(wa); bw != nil {
			t.Fatalf("backupFor(a) at equal load = %s, want none", bw.url)
		}
	}
	// b is strictly lighter but still busy: a backup would queue behind it.
	c.HeartbeatLoad("http://a", &LoadReport{QueueDepth: 1, Inflight: 1})
	if bw := c.backupFor(wa); bw != nil {
		t.Errorf("backupFor(a) with b lighter but busy = %s, want none", bw.url)
	}
	// A fresh report of work the coordinator did not send keeps b busy too.
	wb.addOutstanding(-1)
	c.HeartbeatLoad("http://b", &LoadReport{Inflight: 1})
	if bw := c.backupFor(wa); bw != nil {
		t.Errorf("backupFor(a) with b running a job = %s, want none", bw.url)
	}
	c.HeartbeatLoad("http://b", &LoadReport{})
	if bw := c.backupFor(wa); bw != wb {
		t.Errorf("backupFor(a) with b idle = %v, want b", bw)
	}
	if bw := c.backupFor(wb); bw != nil {
		t.Errorf("backupFor(b) onto the busy a = %s, want none", bw.url)
	}
	if c.rr != rr {
		t.Errorf("backupFor moved the round-robin cursor from %d to %d", rr, c.rr)
	}
	// An idle peer that is suspect is no candidate.
	wb.fail(1)
	if bw := c.backupFor(wa); bw != nil {
		t.Errorf("backupFor(a) with b suspect = %s, want none", bw.url)
	}

	solo := New(Options{Workers: []string{"http://s"}})
	ws := solo.register("http://s")
	solo.HeartbeatLoad("http://s", &LoadReport{QueueDepth: 5, Inflight: 1})
	ws.addOutstanding(6)
	if bw := solo.backupFor(ws); bw != nil {
		t.Errorf("backupFor on a single-worker fleet = %s, want none", bw.url)
	}
}

// TestPickChurn hammers pick concurrently with registration, heartbeats
// and failure marking — a -race exercise that also asserts pick never
// returns an unhealthy worker while healthy ones exist.
func TestPickChurn(t *testing.T) {
	c := New(Options{Workers: []string{"http://w0", "http://w1", "http://w2"}})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // registrations and revivals
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Register(fmt.Sprintf("http://w%d", i%5))
		}
	}()
	go func() { // load reports
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.HeartbeatLoad(fmt.Sprintf("http://w%d", i%5), &LoadReport{QueueDepth: i % 7})
		}
	}()
	go func() { // failures
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, w := range c.snapshotWorkers() {
				if i%3 == 0 {
					w.fail(c.opts.SuspectAfter)
				}
			}
		}
	}()
	deadline := time.Now().Add(200 * time.Millisecond)
	picks := 0
	for time.Now().Before(deadline) {
		if w := c.pick(nil); w != nil {
			picks++
		}
	}
	close(stop)
	wg.Wait()
	if picks == 0 {
		t.Error("pick never returned a worker under churn")
	}
}

// TestProbeSuppressedAfterPushHeartbeat: the probe loop must not
// re-probe a worker heard from within the heartbeat interval (push
// heartbeats already prove liveness), and must resume probing once the
// worker goes quiet.
func TestProbeSuppressedAfterPushHeartbeat(t *testing.T) {
	var probes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			probes.Add(1)
		}
		fmt.Fprintln(w, "ok")
	}))
	defer ts.Close()

	c := New(Options{Workers: []string{ts.URL}, HeartbeatInterval: 50 * time.Millisecond})
	ctx := context.Background()

	// Registration just recorded contact: an immediate probe round is
	// suppressed.
	c.probeAll(ctx)
	if got := probes.Load(); got != 0 {
		t.Fatalf("probes after fresh contact = %d, want 0", got)
	}

	// Quiet past the interval: probing resumes.
	time.Sleep(60 * time.Millisecond)
	c.probeAll(ctx)
	if got := probes.Load(); got != 1 {
		t.Fatalf("probes after going quiet = %d, want 1", got)
	}

	// A push heartbeat re-suppresses the next round.
	c.Heartbeat(ts.URL)
	c.probeAll(ctx)
	if got := probes.Load(); got != 1 {
		t.Errorf("probes after push heartbeat = %d, want still 1", got)
	}
}

// TestSpeculateThresholdArming: the percentile threshold must stay
// disarmed until enough latencies are observed, then answer with at least
// the floor.
func TestSpeculateThresholdArming(t *testing.T) {
	c := New(Options{Workers: []string{"http://a"}, Speculate: true})
	if th := c.speculateThreshold(); th != 0 {
		t.Fatalf("threshold with no samples = %v, want 0", th)
	}
	for i := 0; i < speculateMinSamples-1; i++ {
		c.observeLatency(time.Millisecond)
	}
	if th := c.speculateThreshold(); th != 0 {
		t.Fatalf("threshold under-sampled = %v, want 0", th)
	}
	c.observeLatency(time.Millisecond)
	if th := c.speculateThreshold(); th < speculateFloor {
		t.Errorf("armed threshold = %v, want >= floor %v", th, speculateFloor)
	}

	off := New(Options{Workers: []string{"http://a"}})
	off.observeLatency(time.Millisecond) // must not panic with speculation off
	if th := off.speculateThreshold(); th != 0 {
		t.Errorf("threshold with speculation disabled = %v, want 0", th)
	}
}
