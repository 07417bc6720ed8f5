package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/service"
)

// logBuffer collects a daemon's log lines; the daemon writes while the test
// reads.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// records decodes every JSON log line; a line that is not a JSON object
// with msg and level fails the test.
func (l *logBuffer) records(t *testing.T) []map[string]any {
	t.Helper()
	var recs []map[string]any
	sc := bufio.NewScanner(strings.NewReader(l.String()))
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q", sc.Text())
		}
		if rec["msg"] == nil || rec["level"] == nil {
			t.Fatalf("log line lacks msg or level: %q", sc.Text())
		}
		recs = append(recs, rec)
	}
	return recs
}

// logged waits for the first JSON log record with msg and returns its addr
// attribute; exited, when it closes first, fails the test.
func (l *logBuffer) logged(t *testing.T, msg string, exited <-chan struct{}) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		for _, line := range strings.Split(l.String(), "\n") {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == msg {
				return rec.Addr
			}
		}
		select {
		case <-exited:
			t.Fatalf("daemon exited before logging %q:\n%s", msg, l.String())
		case <-deadline:
			t.Fatalf("daemon never logged %q:\n%s", msg, l.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestFlagErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-log-level", "loud"},
		{"-log-format", "xml"},
		// A worker URL without a scheme cannot be dialled: refused at
		// startup, not at the first study sent through it.
		{"-coordinator", "-workers", "127.0.0.1:9001"},
		{"-join", "127.0.0.1:8356"},
		{"-advertise", "ftp://w1"},
	} {
		var stderr logBuffer
		if code := run(context.Background(), append(args, "-listen", "127.0.0.1:0", "-cache", t.TempDir()), &stderr); code != 2 {
			t.Errorf("sprinklerd %s: exit %d, want 2\n%s", strings.Join(args, " "), code, stderr.String())
		}
	}
}

// TestJSONLogsAndPprof runs the daemon in-process with JSON logs and a
// pprof listener: both listeners report their bound address, pprof serves,
// a study runs, canceling the context drains the daemon with exit 0, and
// every line it logged is a JSON object with msg and level.
func TestJSONLogsAndPprof(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr logBuffer
	exited := make(chan struct{})
	code := -1
	go func() {
		defer close(exited)
		code = run(ctx, []string{"-listen", "127.0.0.1:0", "-cache", t.TempDir(),
			"-log-format", "json", "-node", "n1", "-pprof-listen", "127.0.0.1:0"}, &stderr)
	}()
	t.Cleanup(func() { cancel(); <-exited })

	base := stderr.logged(t, "listening", exited)
	resp, err := http.Get(stderr.logged(t, "pprof listening", exited))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: %s", resp.Status)
	}
	spec := smoke(t)
	spec.Slots = 500
	if _, err := (&service.Client{BaseURL: base}).Run(ctx, spec, nil); err != nil {
		t.Fatal(err)
	}

	cancel()
	<-exited
	if code != 0 {
		t.Fatalf("drain exit %d, want 0:\n%s", code, stderr.String())
	}
	nodes := 0
	for _, rec := range stderr.records(t) {
		if rec["node"] == "n1" {
			nodes++
		}
	}
	if nodes == 0 {
		t.Errorf("no log line carries node=n1:\n%s", stderr.String())
	}
}

// daemon is one sprinklerd child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	log    *logBuffer
	exited chan struct{}
	err    error // cmd.Wait's result, set before exited closes
}

// buildDaemon builds sprinklerd once into a temporary directory.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sprinklerd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// start execs the daemon with JSON logs, a free port unless args name one,
// and the test's cleanup killing and reaping it.
func start(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{log: &logBuffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-log-format", "json"}, args...)...)
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-d.exited
	})
	d.url = d.log.logged(t, "listening", d.exited)
	return d
}

// stop sends SIGTERM and requires a clean drain: exit 0 within the grace.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM:\n%s", d.log.String())
	}
	if d.err != nil {
		t.Fatalf("daemon drained with %v:\n%s", d.err, d.log.String())
	}
}

// metric reads one unlabelled sample from the daemon's /metrics.
func (d *daemon) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample:\n%s", name, body)
	return 0
}

// await polls a metric until it reads want.
func (d *daemon) await(t *testing.T, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.metric(t, name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %v (last %v)", name, want, d.metric(t, name))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func smoke(t *testing.T) experiment.Spec {
	t.Helper()
	spec, err := experiment.BuiltinSpec("smoke")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// rendered is what sweep prints for a study: its table and its CSV.
func rendered(t *testing.T, rs []experiment.PointResult) string {
	t.Helper()
	var b bytes.Buffer
	experiment.RenderStudyCurves(&b, rs)
	if err := experiment.RenderStudyCSV(&b, rs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func local(t *testing.T, spec experiment.Spec) string {
	t.Helper()
	rs, err := experiment.RunStudy(context.Background(), spec, experiment.StudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return rendered(t, rs)
}

func remote(t *testing.T, url string, spec experiment.Spec) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rs, err := (&service.Client{BaseURL: url}).Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rendered(t, rs)
}

// TestProcesses covers what only a real process shows: a SIGTERM drain and
// a restart on the same cache, and a worker SIGKILLed mid-study.
func TestProcesses(t *testing.T) {
	bin := buildDaemon(t)

	// The daemon computes the smoke study once, byte-identical to a local
	// run; after a SIGTERM drain and a restart on the same cache directory,
	// resubmitting it is a pure cache read, and the cache is the daemon's
	// only durable write.
	t.Run("drain-and-restart", func(t *testing.T) {
		cache := t.TempDir()
		spec := smoke(t)
		want := local(t, spec)
		d := start(t, bin, "-cache", cache)
		if got := remote(t, d.url, spec); got != want {
			t.Errorf("remote output differs from local:\n%s\nvs\n%s", got, want)
		}
		if got := d.metric(t, "sprinklerd_points_computed_total"); got != 6 {
			t.Errorf("first pass computed %v points, want 6", got)
		}
		d.stop(t)

		d = start(t, bin, "-cache", cache)
		if got := remote(t, d.url, spec); got != want {
			t.Errorf("output after restart differs from local:\n%s\nvs\n%s", got, want)
		}
		for name, want := range map[string]float64{
			"sprinklerd_sim_slots_total":         0,
			"sprinklerd_points_computed_total":   0,
			"sprinklerd_cache_hits_total":        6,
			"sprinklerd_replicas_computed_total": 0,
		} {
			if got := d.metric(t, name); got != want {
				t.Errorf("after restart %s = %v, want %v", name, got, want)
			}
		}
		d.stop(t)
		if _, err := os.Stat(filepath.Join(cache, "studies")); !os.IsNotExist(err) {
			t.Errorf("cache directory holds a studies entry (stat: %v)", err)
		}
	})

	// A coordinator leases the smoke study to two workers; worker 2 is
	// SIGKILLed once it has computed two replicas. The study still
	// completes byte-identical, the coordinator sees the dead worker and
	// simulates nothing itself, and worker 2's delivered work is not redone.
	// Restarted on its cache and address, worker 2 rejoins the fleet.
	t.Run("worker-killed-mid-study", func(t *testing.T) {
		spec := smoke(t)
		spec.Slots = 60_000
		want := local(t, spec)
		w1 := start(t, bin, "-cache", t.TempDir())
		w2cache := t.TempDir()
		w2 := start(t, bin, "-cache", w2cache)
		coord := start(t, bin, "-cache", t.TempDir(), "-coordinator",
			"-workers", w1.url+","+w2.url, "-heartbeat", "100ms", "-par", "4")
		coord.await(t, "sprinklerd_workers_healthy", 2)

		type result struct {
			rs  []experiment.PointResult
			err error
		}
		done := make(chan result, 1)
		go func() {
			rs, err := (&service.Client{BaseURL: coord.url}).Run(context.Background(), spec, nil)
			done <- result{rs, err}
		}()
		for w2.metric(t, "sprinklerd_replicas_computed_total") < 2 {
			select {
			case <-done:
				t.Fatal("the study finished before worker 2 computed two replicas")
			case <-time.After(2 * time.Millisecond):
			}
		}
		if err := w2.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		<-w2.exited
		res := <-done
		if res.err != nil {
			t.Fatal(res.err)
		}
		if out := rendered(t, res.rs); out != want {
			t.Errorf("output after the kill differs from local:\n%s\nvs\n%s", out, want)
		}

		coord.await(t, "sprinklerd_workers_healthy", 1)
		for name, want := range map[string]float64{
			"sprinklerd_workers_total":             2,
			"sprinklerd_cluster_degraded":          0,
			"sprinklerd_replicas_computed_total":   0,
			"sprinklerd_jobs_local_fallback_total": 0,
		} {
			if got := coord.metric(t, name); got != want {
				t.Errorf("coordinator %s = %v, want %v", name, got, want)
			}
		}
		if n := coord.metric(t, "sprinklerd_jobs_dispatched_total"); n < 18 {
			t.Errorf("coordinator dispatched %v replicas, want >= 18", n)
		}
		if n := w1.metric(t, "sprinklerd_replicas_computed_total"); n >= 18 {
			t.Errorf("worker 1 computed %v replicas: worker 2's delivered work was redone", n)
		}

		w2 = start(t, bin, "-cache", w2cache, "-listen", strings.TrimPrefix(w2.url, "http://"))
		coord.await(t, "sprinklerd_workers_healthy", 2)
		spec.Slots, spec.Seed = 2_000, 9
		if out := remote(t, coord.url, spec); out != local(t, spec) {
			t.Errorf("output after worker 2's restart differs from local:\n%s", out)
		}
	})
}
