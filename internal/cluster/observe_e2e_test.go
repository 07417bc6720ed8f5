package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sprinklers/internal/faultinject"
	"sprinklers/internal/service"
	"sprinklers/internal/trace"
)

// TestTraceEndToEndTwoWorkers: a traced 2-worker cluster run produces a
// merged timeline on the coordinator — spans from both workers with
// coordinator parentage, one dispatch span per dispatched job — while
// the study output stays byte-identical to an untraced local run.
func TestTraceEndToEndTwoWorkers(t *testing.T) {
	w1 := newNode(t, service.Options{Node: "w1"})
	w2 := newNode(t, service.Options{Node: "w2"})
	coordinator, _ := newCoordinator(t, fastOptions(w1.url(), w2.url()),
		service.Options{Node: "coord"})
	spec := testSpec("trace-e2e")
	id := service.StudyID(spec)

	// Byte identity first: tracing is on by default in this cluster and
	// the oracle run is untraced, so equality proves tracing is inert.
	remote := runRemote(t, coordinator, spec)
	if local := localReference(t, spec); !bytes.Equal(remote, local) {
		t.Errorf("traced cluster results differ from untraced local run:\n%s\nvs\n%s", remote, local)
	}

	client := &service.Client{BaseURL: coordinator.url()}
	tr, err := client.Trace(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}

	byID := map[string]trace.Span{}
	byName := map[string]int{}
	nodes := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.ID != "" {
			if _, dup := byID[sp.ID]; dup {
				t.Fatalf("span id %s appears twice in the merged timeline", sp.ID)
			}
			byID[sp.ID] = sp
		}
		byName[sp.Name]++
		nodes[sp.Node] = true
		if sp.Trace != id {
			t.Fatalf("span %s/%s has trace %q, want %q", sp.Node, sp.Name, sp.Trace, id)
		}
	}

	// Spans from both workers and the coordinator, merged.
	for _, n := range []string{"coord", "w1", "w2"} {
		if !nodes[n] {
			t.Errorf("merged timeline has no spans from node %s (nodes: %v)", n, tr.Nodes)
		}
	}

	// One dispatch span per lease and one worker-side job span for each,
	// and one simulate span per dispatched replica (fault-free run:
	// exactly points x replicas).
	wantJobs := int(totalReplicas(spec))
	dispatched := int(coordinator.srv.Counters().JobsDispatched.Load())
	if dispatched != wantJobs {
		t.Errorf("JobsDispatched = %d, want %d (points x replicas)", dispatched, wantJobs)
	}
	if want := leasesFor(spec, runtime.GOMAXPROCS(0)); byName["dispatch"] != want {
		t.Errorf("dispatch spans = %d, want %d (one per lease)", byName["dispatch"], want)
	}
	if byName["job"] != byName["dispatch"] {
		t.Errorf("worker job spans = %d, want %d", byName["job"], byName["dispatch"])
	}
	if byName["simulate"] != wantJobs {
		t.Errorf("simulate spans = %d, want %d", byName["simulate"], wantJobs)
	}

	// Cross-node parentage: every worker job span hangs off a
	// coordinator lease span, which hangs off a dispatch span, which
	// reaches the study root.
	for _, sp := range tr.Spans {
		if sp.Name != "job" {
			continue
		}
		lease, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("job span %s (node %s) has unresolved parent %q", sp.ID, sp.Node, sp.Parent)
		}
		if lease.Name != "lease" || lease.Node != "coord" {
			t.Fatalf("job span %s parent is %s/%s, want coord/lease", sp.ID, lease.Node, lease.Name)
		}
		dispatch, ok := byID[lease.Parent]
		if !ok || dispatch.Name != "dispatch" {
			t.Fatalf("lease span %s does not parent back to a dispatch span", lease.ID)
		}
		root, ok := byID[dispatch.Parent]
		if !ok || root.Name != "study" {
			t.Fatalf("dispatch span %s does not parent back to the study root", dispatch.ID)
		}
	}

	// The chrome export of the same timeline is valid trace-event JSON
	// with one process per node.
	resp, err := http.Get(coordinator.url() + "/api/v1/trace/" + id + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "M" {
			pids[ev.Pid] = true
		}
	}
	if len(pids) < 3 {
		t.Errorf("chrome trace has %d processes, want >= 3 (coord + 2 workers)", len(pids))
	}
}

// TestSlowJobWarningWithoutSpeculation: with speculation disabled, a job
// outstanding past the observed dispatch-latency percentile still
// produces a structured warning carrying the study's trace id.
func TestSlowJobWarningWithoutSpeculation(t *testing.T) {
	var buf lockedBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))

	wFast := newNode(t, service.Options{Node: "fast"})
	wSlow := newNode(t, service.Options{Node: "slow", Fault: faultinject.NewPlan().DelayJobs(150 * time.Millisecond)})
	// Speculate stays off: no backups, but the latency percentile
	// still drives slow-job warnings.
	coordinator, coord := newCoordinator(t, fastOptions(wFast.url()),
		service.Options{Node: "coord", Logger: logger})

	// Train the percentile on fast dispatches (8 jobs = the estimator's
	// minimum sample count).
	runRemote(t, coordinator, testSpec("warn-train"))

	// Swap the fleet: the straggler joins, the fast worker dies.
	if err := coord.Register(wSlow.url()); err != nil {
		t.Fatal(err)
	}
	wFast.ts.Close()
	time.Sleep(150 * time.Millisecond) // let the health loop suspect the dead worker

	// A different seed gives the second study fresh point identities —
	// cache hits from the training study would dispatch nothing.
	slowSpec := testSpec("warn-slow")
	slowSpec.Seed = 42
	runRemote(t, coordinator, slowSpec)

	out := buf.String()
	if !strings.Contains(out, "job outstanding past dispatch-latency percentile") {
		t.Fatalf("no slow-job warning in logs:\n%s", out)
	}
	if !strings.Contains(out, "trace="+service.StudyID(slowSpec)) {
		t.Errorf("slow-job warning does not carry the study trace id %s:\n%s", service.StudyID(slowSpec), out)
	}
	if strings.Contains(out, "speculative backup launched") {
		t.Errorf("speculation fired with Speculate off:\n%s", out)
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
