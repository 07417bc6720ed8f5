package cluster

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sprinklers/internal/experiment"
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
// refused by FetchCAS. A worker's peer fill counts that refusal as a miss
// (TestJobPeerFillOversizedBodyIsAMiss in internal/service).
func TestOversizedCASBodyIsAMiss(t *testing.T) {
	ts := oversizedPeer(t)
	key := strings.Repeat("ab", 32)
	b, err := FetchCAS(context.Background(), ts.URL, key)
	if err == nil || b != nil {
		t.Fatalf("FetchCAS of a %d-byte body = %d bytes, err %v; want nil and an error", maxPeerBodyBytes+1, len(b), err)
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
	err := c.dispatch(context.Background(), c.pick(nil), spec, spec.Points()[0], 0, 1, func(int, experiment.Point, string) {})
	if err == nil {
		t.Fatal("dispatch accepted an oversized job response")
	}
	if !Retryable(context.Background(), err) {
		t.Fatalf("oversized job response = %v, want a transient error", err)
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Errorf("error %q does not name the cap", err)
	}
}
