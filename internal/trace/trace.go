// Package trace records job-lifecycle spans across the sprinklerd
// cluster: study submit, point dispatch, lease attempts, peer-cache
// checks, simulation, CAS stores, and aggregation, plus scheduling
// events (speculate, redispatch, slow-job, local-fallback).
//
// The design is deliberately small and zero-dependency. Spans live in a
// bounded ring journal per node; trace context travels through
// context.Context in-process and through the X-Sprinklerd-Trace /
// X-Sprinklerd-Span HTTP headers between coordinator and worker.
// Workers collect the spans of one job into a Buffer and attach them to
// the job response, and the coordinator merges them into its journal so
// GET /api/v1/trace/{study} can serve one coherent timeline.
//
// Tracing never touches result identity: span IDs, timestamps, and the
// journal are observational only and stay out of fingerprints, cache
// keys, and job wire semantics (headers and a response-only field are
// the entire wire footprint).
package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// HTTP headers carrying trace context coordinator -> worker. They ride
// alongside the job request; the request body is unchanged.
const (
	traceHeader = "X-Sprinklerd-Trace"
	spanHeader  = "X-Sprinklerd-Span"
)

// Span is one timed operation (or, when Event is true, an instant
// marker) in a job's lifecycle. IDs are opaque strings unique within a
// merged timeline; Parent links child spans to the operation that
// caused them, across process boundaries.
type Span struct {
	Trace  string            `json:"trace"`
	ID     string            `json:"id"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Node   string            `json:"node,omitempty"`
	Study  string            `json:"study,omitempty"`
	Job    string            `json:"job,omitempty"`
	Rep    int               `json:"rep,omitempty"`
	Start  int64             `json:"start_ns"`
	Dur    int64             `json:"dur_ns"`
	Event  bool              `json:"event,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Recorder accepts finished spans. Journal (bounded ring, long-lived)
// and Buffer (request-scoped, returned to the caller) both implement
// it.
type Recorder interface {
	Record(sp Span)
	// NewSpanID returns an ID unique within this recorder's lifetime
	// and, with high probability, across recorders (a random prefix
	// plus a counter).
	NewSpanID() string
}

// idPrefix returns a short random prefix so span IDs minted by
// different nodes (or different Buffers on one node) do not collide
// when merged into one timeline. Randomness here is purely for ID
// uniqueness and never influences simulation results.
func idPrefix() string {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], rand.Uint64())
	return fmt.Sprintf("%08x", binary.LittleEndian.Uint32(b[:4]))
}

// Journal is a thread-safe bounded ring of spans. When full, the oldest
// spans are overwritten and Dropped counts them; a study's trace
// degrades to its most recent window instead of growing without bound.
type Journal struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	full    bool
	dropped int64
	prefix  string
	ctr     atomic.Uint64
}

// NewJournal returns a ring journal holding at most capacity spans.
// capacity <= 0 returns nil, which every consumer treats as
// tracing-disabled.
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		return nil
	}
	return &Journal{buf: make([]Span, 0, capacity), prefix: idPrefix()}
}

// Record stores one span, overwriting the oldest when full.
func (j *Journal) Record(sp Span) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if len(j.buf) < cap(j.buf) {
		j.buf = append(j.buf, sp)
	} else {
		j.buf[j.next] = sp
		j.next = (j.next + 1) % cap(j.buf)
		j.full = true
		j.dropped++
	}
	j.mu.Unlock()
}

// NewSpanID mints a journal-unique span ID.
func (j *Journal) NewSpanID() string {
	if j == nil {
		return ""
	}
	return fmt.Sprintf("%s-%x", j.prefix, j.ctr.Add(1))
}

// Snapshot returns the retained spans oldest-first.
func (j *Journal) Snapshot() []Span {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Span, 0, len(j.buf))
	if j.full {
		out = append(out, j.buf[j.next:]...)
		out = append(out, j.buf[:j.next]...)
	} else {
		out = append(out, j.buf...)
	}
	return out
}

// Study returns the retained spans belonging to one study, oldest-first.
func (j *Journal) Study(id string) []Span {
	var out []Span
	for _, sp := range j.Snapshot() {
		if sp.Study == id {
			out = append(out, sp)
		}
	}
	return out
}

// Dropped reports how many spans the ring has overwritten.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Len reports the retained span count.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.buf)
}

// Buffer is a request-scoped Recorder: a worker collects the spans of
// one job here, attaches them to the job response, and usually also
// copies them into its own journal.
type Buffer struct {
	mu     sync.Mutex
	spans  []Span
	prefix string
	ctr    atomic.Uint64
}

// NewBuffer returns an empty span buffer.
func NewBuffer() *Buffer { return &Buffer{prefix: idPrefix()} }

// Record appends one span.
func (b *Buffer) Record(sp Span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.spans = append(b.spans, sp)
	b.mu.Unlock()
}

// NewSpanID mints a buffer-unique span ID.
func (b *Buffer) NewSpanID() string {
	if b == nil {
		return ""
	}
	return fmt.Sprintf("%s-%x", b.prefix, b.ctr.Add(1))
}

// Spans returns the recorded spans in recording order.
func (b *Buffer) Spans() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Span, len(b.spans))
	copy(out, b.spans)
	return out
}

// SpanContext is the ambient trace state carried through
// context.Context: where to record (J), which trace and study the work
// belongs to, the current parent span, and the recording node's name.
// The zero value is disabled; every method on it and on the Active
// spans it creates is a no-op, so instrumented code needs no
// enabled-checks.
type SpanContext struct {
	J      Recorder
	Trace  string
	Parent string
	Study  string
	Node   string
}

// Enabled reports whether spans recorded through this context go
// anywhere.
func (sc SpanContext) Enabled() bool { return sc.J != nil }

type ctxKey struct{}

// NewContext returns ctx carrying sc.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext returns the SpanContext carried by ctx, or a disabled
// zero value.
func FromContext(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc
}

// Active is an in-flight span; End records it. A nil Active (from a
// disabled SpanContext) ignores every call.
type Active struct {
	sc   SpanContext
	span Span
	t0   time.Time
}

// Start begins a span named name under the current parent. It returns
// nil when tracing is disabled.
func (sc SpanContext) Start(name string) *Active {
	if sc.J == nil {
		return nil
	}
	return &Active{
		sc: sc,
		span: Span{
			Trace:  sc.Trace,
			ID:     sc.J.NewSpanID(),
			Parent: sc.Parent,
			Name:   name,
			Node:   sc.Node,
			Study:  sc.Study,
		},
		t0: time.Now(),
	}
}

// Event records an instant marker under the current parent. attrs are
// alternating key, value pairs.
func (sc SpanContext) Event(name string, attrs ...string) {
	if sc.J == nil {
		return
	}
	sp := Span{
		Trace:  sc.Trace,
		ID:     sc.J.NewSpanID(),
		Parent: sc.Parent,
		Name:   name,
		Node:   sc.Node,
		Study:  sc.Study,
		Start:  time.Now().UnixNano(),
		Event:  true,
	}
	if len(attrs) >= 2 {
		sp.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			sp.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	sc.J.Record(sp)
}

// SetJob labels the span with the job it serves: the point's cache key
// and replica index.
func (a *Active) SetJob(job string, rep int) {
	if a == nil {
		return
	}
	a.span.Job = job
	a.span.Rep = rep
}

// Attr attaches one key/value attribute.
func (a *Active) Attr(k, v string) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string)
	}
	a.span.Attrs[k] = v
}

// Context returns the span's child context: work started under it is
// parented to this span. With a nil Active the original sc (possibly
// disabled) flows through unchanged inside ctx.
func (a *Active) Context(ctx context.Context) context.Context {
	if a == nil {
		return ctx
	}
	return NewContext(ctx, a.SpanContext())
}

// SpanContext returns a child SpanContext whose Parent is this span.
func (a *Active) SpanContext() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	sc := a.sc
	sc.Parent = a.span.ID
	return sc
}

// End records the span with its measured duration. Safe to call on nil
// and idempotent enough for defer use (a second End records a
// duplicate; callers End exactly once).
func (a *Active) End() {
	if a == nil {
		return
	}
	a.span.Start = a.t0.UnixNano()
	a.span.Dur = time.Since(a.t0).Nanoseconds()
	a.sc.J.Record(a.span)
}

// Inject writes sc's trace context into HTTP headers for a job request.
func Inject(h http.Header, sc SpanContext) {
	if sc.Trace == "" {
		return
	}
	h.Set(traceHeader, sc.Trace)
	if sc.Parent != "" {
		h.Set(spanHeader, sc.Parent)
	}
}

// Extract reads trace context from HTTP headers; traceID is "" when the
// request is untraced.
func Extract(h http.Header) (traceID, parentSpan string) {
	return h.Get(traceHeader), h.Get(spanHeader)
}
