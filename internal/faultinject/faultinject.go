// Package faultinject provides a deterministic fault plan for
// chaos-testing the sprinklerd cluster. A Plan decides, from a fixed call
// sequence, which requests fail, which replicas stall, and at which
// (job, slot) a worker "crashes" — so a chaos test that kills a worker
// mid-replica is reproducible run over run.
//
// The package has two injection surfaces:
//
//   - Transport wraps http.DefaultTransport and fails every nth matching
//     request with an injected connection error, which wraps
//     syscall.ECONNREFUSED and reads exactly like a real dead peer. The
//     retry rule (cluster.Retryable) retries any transport error.
//   - Worker hooks: a sprinklerd worker configured with a Plan consults
//     JobStarted before each replica it simulates; the returned Crash
//     aborts that replica at a configured simulation slot (or on entry)
//     and marks the plan Dead, so the "killed" worker stops answering —
//     the in-process equivalent of kill -9 mid-replica. JobStall stalls
//     each replica first, which makes the worker a straggler.
package faultinject

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Plan is a deterministic fault schedule. The zero Plan injects nothing;
// configure it with FailEveryNth, DelayJobs and CrashWorkerAt before use.
// All methods are safe for concurrent use.
type Plan struct {
	mu sync.Mutex

	reqs      int64 // requests decided so far (Transport calls)
	failEvery int64 // fail every Nth request (1-based)

	jobs      atomic.Int64 // worker jobs started
	jobStall  atomic.Int64 // stall before each job (a time.Duration)
	crashJob  int64        // crash on the Nth job (1-based; 0 = never)
	crashSlot int64        // within that job, crash at this simulation slot

	injected atomic.Int64
	dead     atomic.Bool
}

// NewPlan returns an empty fault plan.
func NewPlan() *Plan { return &Plan{} }

// FailEveryNth makes every nth transport request (the nth, 2nth, ...) fail.
func (p *Plan) FailEveryNth(n int) *Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failEvery = int64(n)
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

// failNext advances the request sequence and reports whether this request
// fails.
func (p *Plan) failNext() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reqs++
	return p.failEvery > 0 && p.reqs%p.failEvery == 0
}

// errInjected is the terminal cause of every injected transport error. It
// wraps ECONNREFUSED, so it reads exactly like a real refused connection.
var errInjected = fmt.Errorf("faultinject: injected fault: %w", syscall.ECONNREFUSED)

// Transport applies a Plan's request faults around http.DefaultTransport.
// Requests not matched by Match (when set) pass through untouched and do
// not advance the plan's request sequence.
type Transport struct {
	// Plan supplies the fault schedule (required).
	Plan *Plan
	// Match, when set, limits injection to matching requests.
	Match func(*http.Request) bool
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Plan != nil && (t.Match == nil || t.Match(req)) && t.Plan.failNext() {
		t.Plan.injected.Add(1)
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errInjected}
	}
	return http.DefaultTransport.RoundTrip(req)
}

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
