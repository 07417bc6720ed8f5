// Package faultinject provides a deterministic, seedable fault plan for
// chaos-testing the sprinklerd cluster. A Plan decides, from a fixed seed
// and a fixed call sequence, which requests fail, which are delayed, which
// response bodies are cut mid-stream, and at which (job, slot) a worker
// "crashes" — so a chaos test that kills a worker at a random-looking point
// is nonetheless reproducible run over run.
//
// The package has two injection surfaces:
//
//   - Transport wraps an http.RoundTripper and applies the plan's
//     request-level faults (injected connection errors, delays, body cuts).
//     Injected errors wrap syscall.ECONNREFUSED, so retry layers classify
//     them exactly like a real dead peer.
//   - Worker hooks: a sprinklerd worker configured with a Plan consults
//     JobStarted before each replica it simulates; the returned Crash
//     aborts that replica at a configured simulation slot (or on entry)
//     and marks the plan Dead, so
//     the "killed" worker stops answering — the in-process equivalent of
//     kill -9 mid-replica. JobStall stalls each replica first, which makes
//     the worker a straggler.
package faultinject

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Plan is a deterministic fault schedule. The zero Plan injects nothing;
// configure it with the Fail*/Delay*/Cut*/CrashWorkerAt methods before use.
// All methods are safe for concurrent use.
type Plan struct {
	mu  sync.Mutex
	rng *rand.Rand

	reqs      int64 // requests decided so far (Transport calls)
	failFirst int64 // fail the first N requests
	failEvery int64 // fail every Nth request (1-based)
	failRate  float64
	delay     time.Duration
	cutNth    int64 // cut the body of the Nth successful response...
	cutAfter  int64 // ...after this many bytes

	jobs      atomic.Int64 // worker jobs started
	jobStall  atomic.Int64 // stall before each job (a time.Duration)
	crashJob  int64        // crash on the Nth job (1-based; 0 = never)
	crashSlot int64        // within that job, crash at this simulation slot

	injected atomic.Int64
	dead     atomic.Bool
}

// NewPlan returns a fault plan whose probabilistic decisions derive from
// seed: two plans with the same seed and the same configuration make
// identical decision sequences.
func NewPlan(seed int64) *Plan {
	if seed == 0 {
		seed = 1
	}
	return &Plan{rng: rand.New(rand.NewSource(seed))}
}

// FailFirstRequests makes the first n transport requests fail with an
// injected connection error.
func (p *Plan) FailFirstRequests(n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failFirst = int64(n)
	return p
}

// FailEveryNth makes every nth transport request (the nth, 2nth, ...) fail.
func (p *Plan) FailEveryNth(n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failEvery = int64(n)
	return p
}

// FailWithProbability makes each transport request fail independently with
// probability rate, drawn from the plan's seeded generator.
func (p *Plan) FailWithProbability(rate float64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failRate = rate
	return p
}

// DelayRequests delays every transport request by d before it is sent
// (canceled early if the request's context expires).
func (p *Plan) DelayRequests(d time.Duration) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.delay = d
	return p
}

// CutResponseBody truncates the body of the nth successful response after
// `after` bytes: the reader then returns an injected connection-reset
// error, which is what an SSE consumer sees when its daemon dies mid-stream.
func (p *Plan) CutResponseBody(nth int, after int64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cutNth = int64(nth)
	p.cutAfter = after
	return p
}

// CrashWorkerAt schedules a worker crash: the job-th replica simulation
// (1-based) aborts at simulation slot `slot` (0 aborts on entry), and the
// plan reports Dead from then on — the worker behaves like a kill -9'd
// process.
func (p *Plan) CrashWorkerAt(job int, slot int64) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.crashJob = int64(job)
	p.crashSlot = slot
	return p
}

// DelayJobs stalls every replica simulation a worker starts by d, lease
// still enforced: the worker becomes a straggler.
func (p *Plan) DelayJobs(d time.Duration) *Plan {
	p.jobStall.Store(int64(d))
	return p
}

// JobStall reports the stall DelayJobs configured (0 when none).
func (p *Plan) JobStall() time.Duration { return time.Duration(p.jobStall.Load()) }

// Injected reports how many faults the plan has injected so far.
func (p *Plan) Injected() int64 { return p.injected.Load() }

// Dead reports whether a scheduled worker crash has fired. A dead worker's
// endpoints abort every subsequent connection.
func (p *Plan) Dead() bool { return p.dead.Load() }

// Kill marks the plan dead immediately (a crash without a schedule).
func (p *Plan) Kill() { p.dead.Store(true) }

// decision is one request's fate.
type decision struct {
	fail  bool
	delay time.Duration
	cut   int64 // >= 0: cut body after this many bytes
}

// nextRequest advances the request sequence and returns its fate.
func (p *Plan) nextRequest() decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reqs++
	d := decision{delay: p.delay, cut: -1}
	switch {
	case p.failFirst > 0 && p.reqs <= p.failFirst:
		d.fail = true
	case p.failEvery > 0 && p.reqs%p.failEvery == 0:
		d.fail = true
	case p.failRate > 0 && p.rng != nil && p.rng.Float64() < p.failRate:
		d.fail = true
	}
	if !d.fail && p.cutNth > 0 {
		p.cutNth--
		if p.cutNth == 0 {
			d.cut = p.cutAfter
		}
	}
	return d
}

// errInjected is the terminal cause of every injected transport error. It
// wraps ECONNREFUSED so errors.Is-based transient-failure classifiers treat
// an injected fault exactly like a real refused connection.
var errInjected = fmt.Errorf("faultinject: injected fault: %w", syscall.ECONNREFUSED)

// InjectedError returns the error injected transport faults resolve to,
// for tests asserting on the cause chain.
func InjectedError() error { return errInjected }

// Transport applies a Plan's request-level faults around a base
// http.RoundTripper. Requests not matched by Match (when set) pass through
// untouched and do not advance the plan's request sequence.
type Transport struct {
	// Base is the underlying transport; nil means http.DefaultTransport.
	Base http.RoundTripper
	// Plan supplies the fault schedule (required).
	Plan *Plan
	// Match, when set, limits injection to matching requests.
	Match func(*http.Request) bool
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Plan == nil || (t.Match != nil && !t.Match(req)) {
		return t.base().RoundTrip(req)
	}
	d := t.Plan.nextRequest()
	if d.delay > 0 {
		timer := time.NewTimer(d.delay)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	if d.fail {
		t.Plan.injected.Add(1)
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errInjected}
	}
	resp, err := t.base().RoundTrip(req)
	if err == nil && d.cut >= 0 {
		t.Plan.injected.Add(1)
		resp.Body = &cutBody{rc: resp.Body, remaining: d.cut}
	}
	return resp, err
}

// cutBody truncates a response body after remaining bytes, then fails like
// a reset connection.
type cutBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (c *cutBody) Read(b []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, fmt.Errorf("faultinject: response body cut: %w", syscall.ECONNRESET)
	}
	if int64(len(b)) > c.remaining {
		b = b[:c.remaining]
	}
	n, err := c.rc.Read(b)
	c.remaining -= int64(n)
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// Crash controls one job's scheduled abort. The worker wires OnSlot into
// the simulation's per-slot hook and selects on Done alongside the job's
// completion; when the configured slot is reached, Done closes and the
// plan goes Dead.
type Crash struct {
	plan *Plan
	slot int64
	seen atomic.Int64
	once sync.Once
	done chan struct{}
}

// JobStarted advances the worker's sequence of replica simulations and
// returns the crash controller for this one, or nil if it is not scheduled
// to crash. Once the plan is dead every simulation crashes on entry.
func (p *Plan) JobStarted() *Crash {
	if p.dead.Load() {
		c := &Crash{plan: p, done: make(chan struct{})}
		c.fire()
		return c
	}
	n := p.jobs.Add(1)
	p.mu.Lock()
	crashJob, crashSlot := p.crashJob, p.crashSlot
	p.mu.Unlock()
	if crashJob == 0 || n != crashJob {
		return nil
	}
	c := &Crash{plan: p, slot: crashSlot, done: make(chan struct{})}
	if crashSlot <= 0 {
		c.fire()
	}
	return c
}

func (c *Crash) fire() {
	c.once.Do(func() {
		c.plan.dead.Store(true)
		c.plan.injected.Add(1)
		close(c.done)
	})
}

// OnSlot counts simulation slots and fires the crash at the scheduled one.
// Safe to call from the simulation goroutine while the worker's handler
// selects on Done.
func (c *Crash) OnSlot(int64) {
	if c.seen.Add(1) == c.slot {
		c.fire()
	}
}

// Done closes when the crash fires.
func (c *Crash) Done() <-chan struct{} { return c.done }
