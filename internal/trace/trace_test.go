package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

func TestJournalRingBound(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(Span{Trace: "t", ID: j.NewSpanID(), Name: "s", Start: int64(i)})
	}
	got := j.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	// Oldest-first: the ring must keep the most recent 4 (6..9).
	for i, sp := range got {
		if want := int64(6 + i); sp.Start != want {
			t.Fatalf("span %d has Start %d, want %d", i, sp.Start, want)
		}
	}
	if j.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", j.Dropped())
	}
}

func TestJournalNilDisabled(t *testing.T) {
	var j *Journal
	j.Record(Span{})
	if j.NewSpanID() != "" || j.Len() != 0 || j.Snapshot() != nil {
		t.Fatal("nil journal must be inert")
	}
	if NewJournal(0) != nil {
		t.Fatal("NewJournal(0) must return nil (disabled)")
	}
}

func TestSpanContextPropagation(t *testing.T) {
	j := NewJournal(16)
	sc := SpanContext{J: j, Trace: "abc", Study: "abc", Node: "n1"}
	ctx := NewContext(context.Background(), sc)

	got := FromContext(ctx)
	if !got.Enabled() || got.Trace != "abc" {
		t.Fatalf("FromContext lost state: %+v", got)
	}

	root := got.Start("study")
	child := FromContext(root.Context(ctx)).Start("dispatch")
	child.SetJob("k1", 2)
	child.Attr("worker", "w1")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	spans := j.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	d, s := spans[0], spans[1]
	if d.Name != "dispatch" || s.Name != "study" {
		t.Fatalf("unexpected order: %q then %q", d.Name, s.Name)
	}
	if d.Parent != s.ID {
		t.Fatalf("dispatch parent %q != study id %q", d.Parent, s.ID)
	}
	if d.Job != "k1" || d.Rep != 2 || d.Attrs["worker"] != "w1" {
		t.Fatalf("dispatch labels lost: %+v", d)
	}
	if d.Dur <= 0 {
		t.Fatalf("dispatch duration %d, want > 0", d.Dur)
	}
	if d.Node != "n1" || d.Study != "abc" || d.Trace != "abc" {
		t.Fatalf("context fields lost: %+v", d)
	}
}

func TestDisabledContextIsInert(t *testing.T) {
	sc := FromContext(context.Background())
	if sc.Enabled() {
		t.Fatal("empty context must be disabled")
	}
	sp := sc.Start("x")
	sp.SetJob("k", 0)
	sp.Attr("a", "b")
	sp.End() // must not panic
	sc.Event("e", "k", "v")
	if sp != nil {
		t.Fatal("disabled context must start no span")
	}
	if ctx := sp.Context(context.Background()); FromContext(ctx).Enabled() {
		t.Fatal("disabled span must not enable a context")
	}
}

func TestHeaderInjectExtract(t *testing.T) {
	h := http.Header{}
	Inject(h, SpanContext{Trace: "t123", Parent: "s9"})
	tr, par := Extract(h)
	if tr != "t123" || par != "s9" {
		t.Fatalf("round trip got (%q, %q)", tr, par)
	}

	empty := http.Header{}
	Inject(empty, SpanContext{})
	if len(empty) != 0 {
		t.Fatal("disabled context must not set headers")
	}
	if tr, _ := Extract(empty); tr != "" {
		t.Fatal("extract from empty headers must be empty")
	}
}

func TestBufferCollectsAndMints(t *testing.T) {
	b := NewBuffer()
	sc := SpanContext{J: b, Trace: "t", Node: "w"}
	sp := sc.Start("job")
	sp.End()
	sc.Event("cache-hit")
	spans := b.Spans()
	if len(spans) != 2 {
		t.Fatalf("buffer has %d spans, want 2", len(spans))
	}
	if spans[0].ID == spans[1].ID || spans[0].ID == "" {
		t.Fatalf("buffer span IDs not unique: %q %q", spans[0].ID, spans[1].ID)
	}
}

func TestEventAttrs(t *testing.T) {
	j := NewJournal(4)
	sc := SpanContext{J: j, Trace: "t"}
	sc.Event("redispatch", "from", "w1", "to", "w2")
	sp := j.Snapshot()[0]
	if !sp.Event || sp.Attrs["from"] != "w1" || sp.Attrs["to"] != "w2" {
		t.Fatalf("event span malformed: %+v", sp)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	j := NewJournal(16)
	co := SpanContext{J: j, Trace: "t", Study: "t", Node: "coordinator"}
	root := co.Start("study")
	d := FromContext(root.Context(context.Background()))
	dsp := d.Start("dispatch")
	dsp.SetJob("pt-0", 0)
	dsp.End()
	root.End()
	wk := SpanContext{J: j, Trace: "t", Study: "t", Node: "worker-1"}
	wsp := wk.Start("simulate")
	wsp.SetJob("pt-0", 0)
	wsp.End()
	wk.Event("slow-job")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, j.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// 4 spans + 2 process metadata events.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6", len(doc.TraceEvents))
	}
	var meta, complete, instant int
	pids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			if ev.Args["name"] == "" {
				t.Fatalf("metadata event without process name: %+v", ev)
			}
		case "X":
			complete++
			if ev.Ts < 0 {
				t.Fatalf("negative rebased timestamp: %+v", ev)
			}
			pids[ev.Pid] = true
		case "i":
			instant++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 2 || complete != 3 || instant != 1 {
		t.Fatalf("event mix meta=%d complete=%d instant=%d", meta, complete, instant)
	}
	if len(pids) != 2 {
		t.Fatalf("complete events span %d pids, want 2 (coordinator + worker)", len(pids))
	}
}
