package faultinject

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// client returns an http.Client whose transport injects plan faults.
func client(p *Plan) *http.Client {
	return &http.Client{Transport: &Transport{Plan: p}}
}

// TestFailFirstRequestsInjectsConnectionErrors: under FailEveryNth(2) the
// second and fourth requests fail with an injected connection error that
// wraps ECONNREFUSED, the others reach the server, and Injected counts the
// two failures.
func TestFailFirstRequestsInjectsConnectionErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	p := NewPlan().FailEveryNth(2)
	c := client(p)
	for i := 1; i <= 4; i++ {
		resp, err := c.Get(ts.URL)
		if i%2 == 1 {
			if err != nil {
				t.Fatalf("request %d should pass: %v", i, err)
			}
			resp.Body.Close()
			continue
		}
		if err == nil {
			t.Fatalf("request %d: want injected error, got nil", i)
		}
		if !errors.Is(err, syscall.ECONNREFUSED) {
			t.Fatalf("request %d: want ECONNREFUSED in chain, got %v", i, err)
		}
	}
	if got := p.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestCrashWorkerAtSlotFiresOnceAndGoesDead(t *testing.T) {
	p := NewPlan().CrashWorkerAt(2, 3)
	if c := p.JobStarted(); c != nil {
		t.Fatal("job 1 should not crash")
	}
	c := p.JobStarted()
	if c == nil {
		t.Fatal("job 2 should carry a crash controller")
	}
	select {
	case <-c.Done():
		t.Fatal("crash fired before the scheduled slot")
	default:
	}
	c.OnSlot(0)
	c.OnSlot(1)
	if p.Dead() {
		t.Fatal("dead before slot 3")
	}
	c.OnSlot(2)
	select {
	case <-c.Done():
	default:
		t.Fatal("crash did not fire at slot 3")
	}
	if !p.Dead() {
		t.Fatal("plan not dead after crash")
	}
	// Every job after death crashes on entry.
	c2 := p.JobStarted()
	if c2 == nil {
		t.Fatal("dead plan returned nil crash")
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("post-death job did not crash on entry")
	}
}

func TestMatchLimitsInjection(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ts.Close()

	p := NewPlan().FailEveryNth(1)
	c := &http.Client{Transport: &Transport{
		Plan:  p,
		Match: func(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, "/api/") },
	}}
	resp, err := c.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("unmatched request should pass: %v", err)
	}
	resp.Body.Close()
	if _, err := c.Get(ts.URL + "/api/v1/jobs"); err == nil {
		t.Fatal("matched request should fail")
	}
}

func TestDelayJobs(t *testing.T) {
	p := NewPlan()
	if d := p.JobStall(); d != 0 {
		t.Fatalf("fresh plan delays jobs by %v, want 0", d)
	}
	if d := p.DelayJobs(250 * time.Millisecond).JobStall(); d != 250*time.Millisecond {
		t.Fatalf("JobStall = %v, want 250ms", d)
	}
	if p.JobStarted() != nil || p.Dead() || p.Injected() != 0 {
		t.Fatal("a delay-only plan scheduled a crash or counted a fault")
	}
}
