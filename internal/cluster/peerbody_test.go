package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sprinklers/internal/experiment"
	"sprinklers/internal/resultcache"
)

// oversizedPeer serves maxPeerBodyBytes + 1 bytes with a 200 on every path.
func oversizedPeer(t *testing.T) *httptest.Server {
	t.Helper()
	body := append([]byte(`{"source":"`), bytes.Repeat([]byte("x"), maxPeerBodyBytes)...)
	body = append(body[:maxPeerBodyBytes-1], '"', '}')
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestOversizedCASBodyIsAMiss: a peer CAS entry one byte past the cap is
// refused by FetchCAS, and the coordinator's peer-filled cache counts it as
// a miss without storing anything.
func TestOversizedCASBodyIsAMiss(t *testing.T) {
	ts := oversizedPeer(t)
	key := strings.Repeat("ab", 32)
	b, err := FetchCAS(context.Background(), http.DefaultClient, ts.URL, key)
	if err == nil || b != nil {
		t.Fatalf("FetchCAS of a %d-byte body = %d bytes, err %v; want nil and an error", maxPeerBodyBytes+1, len(b), err)
	}

	store, err := resultcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := New(Options{Workers: []string{ts.URL}})
	got, ok, err := c.WrapCache(store).Get(key)
	if err != nil || ok || got != nil {
		t.Fatalf("peer cache Get = %d bytes, %v, %v; want a miss", len(got), ok, err)
	}
	if _, ok, _ := store.Get(key); ok {
		t.Error("the oversized body was stored locally")
	}
	if n := c.counters.PeerCacheFills.Load(); n != 0 {
		t.Errorf("PeerCacheFills = %d, want 0", n)
	}
}

// TestOversizedJobResponseIsTransient: a 200 job response one byte past the
// cap fails the attempt as a transient error, so the job is retried rather
// than failed or fed a truncated result.
func TestOversizedJobResponseIsTransient(t *testing.T) {
	ts := oversizedPeer(t)
	c := New(Options{Workers: []string{ts.URL}})
	spec := experiment.Spec{
		Algorithms: experiment.Algs(experiment.LoadBalanced),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      []float64{0.5}, Sizes: []int{8}, Slots: 100,
	}.WithDefaults()
	_, _, err := c.dispatch(context.Background(), c.pick(nil), spec, spec.Points()[0], 0)
	if err == nil {
		t.Fatal("dispatch accepted an oversized job response")
	}
	var perm *PermanentError
	if errors.As(err, &perm) {
		t.Fatalf("oversized job response = %v, want a transient error", err)
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Errorf("error %q does not name the cap", err)
	}
}
