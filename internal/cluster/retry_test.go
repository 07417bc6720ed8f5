package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
	"sprinklers/internal/service"
)

// TestRetryRule holds the daemon client (do, Stream, Run) and the
// coordinator (dispatch, RunReplicas) to one rule: a failed request is
// retried, up to the call site's budget, unless the caller's context is
// done, the peer answered 4xx, or the answer is terminal. Each row is one
// failure served by an httptest peer. For each call site the row names, it
// counts the requests the site makes (Run: its submissions; RunReplicas:
// its dispatches) and checks cluster.Retryable's verdict on the error the
// site returns. RunReplicas gives up on a peer that keeps failing after
// two dispatches (the peer is suspect) and runs the replica locally.
func TestRetryRule(t *testing.T) {
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			fmt.Fprintf(w, `{"error":"status %d"}`, code)
		}
	}
	// A handler notices its client hang up only once it has read the body.
	block := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		<-r.Context().Done()
	}
	cut := func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			fmt.Fprint(w, `data: {"done":1`)
		} else {
			fmt.Fprint(w, `{"rep":0,"point":{`)
		}
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	oversized := func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte(" "), cluster.MaxPeerBodyBytes+1)) //nolint:errcheck
	}
	failed := func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "data: {\"state\":\"failed\",\"error\":\"boom\"}\n\n")
	}
	onePoint := experiment.Spec{
		Algorithms: experiment.Algs(experiment.LoadBalanced),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      []float64{0.5}, Sizes: []int{8}, Slots: 100,
	}.WithDefaults()
	unbuildable := onePoint
	unbuildable.Loads = []float64{math.NaN()} // json.Marshal refuses a NaN

	for _, tc := range []struct {
		name string
		peer http.HandlerFunc // nil: nothing listens
		spec experiment.Spec  // the dispatched study; zero: onePoint
		// lease is the coordinator's Lease (zero: fastOptions'); cancel,
		// when set, is how long after the peer sees a request the caller
		// cancels its context. No event marks a client in its backoff, so
		// 25 ms places the cancel there: the 503 is back long before, and
		// the first backoff lasts at least 50 ms.
		lease, cancel time.Duration
		retry         bool // Retryable's verdict on each site's error
		status        int  // non-zero: each site's error carries this *APIError
		sites         map[string]int
	}{
		{name: "connection refused", retry: true,
			sites: map[string]int{"do": 4, "Stream": 4, "dispatch": 1, "RunReplicas": 2}},
		{name: "body cut mid-stream", peer: cut, retry: true,
			sites: map[string]int{"Stream": 4, "dispatch": 1, "RunReplicas": 2}},
		{name: "5xx", peer: status(http.StatusServiceUnavailable), retry: true, status: 503,
			sites: map[string]int{"do": 4, "Stream": 4, "dispatch": 1, "RunReplicas": 2}},
		{name: "4xx", peer: status(http.StatusNotFound), status: 404,
			sites: map[string]int{"do": 1, "Stream": 1, "Run": 4, "dispatch": 1, "RunReplicas": 1}},
		{name: "body over the cap", peer: oversized, retry: true,
			sites: map[string]int{"dispatch": 1, "RunReplicas": 2}},
		{name: "lease deadline", peer: block, lease: 20 * time.Millisecond, retry: true,
			sites: map[string]int{"dispatch": 1, "RunReplicas": 2}},
		{name: "caller canceled mid-request", peer: block, cancel: 25 * time.Millisecond,
			sites: map[string]int{"do": 1, "Stream": 1, "dispatch": 1, "RunReplicas": 1}},
		{name: "caller canceled in backoff", peer: status(http.StatusServiceUnavailable), cancel: 25 * time.Millisecond, status: 503,
			sites: map[string]int{"do": 1, "Stream": 1}},
		{name: "study failed", peer: failed,
			sites: map[string]int{"Stream": 1}},
		{name: "unbuildable request", peer: status(http.StatusOK), spec: unbuildable,
			sites: map[string]int{"dispatch": 0, "RunReplicas": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var submits atomic.Int64
			arrived := make(chan struct{}, 1)
			var url string
			if tc.peer != nil {
				mux := http.NewServeMux()
				mux.HandleFunc("POST /api/v1/studies", func(w http.ResponseWriter, r *http.Request) {
					submits.Add(1)
					json.NewEncoder(w).Encode(service.StudyStatus{ID: "s", State: service.StateRunning}) //nolint:errcheck
				})
				mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
					select {
					case arrived <- struct{}{}:
					default:
					}
					tc.peer(w, r)
				})
				ts := httptest.NewServer(mux)
				t.Cleanup(ts.Close)
				url = ts.URL
			} else {
				dead := httptest.NewServer(http.NotFoundHandler())
				url = dead.URL
				dead.Close()
			}
			spec := tc.spec
			if spec.Slots == 0 {
				spec = onePoint
			}
			key := spec.Points()[0]
			client := &service.Client{BaseURL: url}
			ctr := &experiment.Counters{}
			coordinator := func() *cluster.Coordinator {
				opts := fastOptions(url)
				if tc.lease > 0 {
					opts.Lease = tc.lease
				}
				c := cluster.New(opts)
				c.UseCounters(ctr)
				return c
			}
			sites := map[string]func(context.Context) error{
				"do": func(ctx context.Context) error {
					_, _, err := client.Results(ctx, "s", false)
					return err
				},
				"Stream": func(ctx context.Context) error {
					_, err := client.Stream(ctx, "s", 0, nil)
					return err
				},
				"Run": func(ctx context.Context) error {
					_, err := client.Run(ctx, spec, nil)
					return err
				},
				"dispatch": func(ctx context.Context) error {
					return coordinator().DispatchOnce(ctx, spec, key)
				},
				"RunReplicas": func(ctx context.Context) error {
					_, err := coordinator().RunReplicas(ctx, spec, key, 0, 1)
					return err
				},
			}
			for _, name := range []string{"do", "Stream", "Run", "dispatch", "RunReplicas"} {
				want, ok := tc.sites[name]
				if !ok {
					continue
				}
				var requests atomic.Int64
				ctx, cancel := context.WithCancel(httptrace.WithClientTrace(context.Background(),
					&httptrace.ClientTrace{GetConn: func(string) { requests.Add(1) }}))
				select {
				case <-arrived:
				default:
				}
				if tc.cancel > 0 {
					go func() {
						select {
						case <-arrived:
							time.Sleep(tc.cancel)
						case <-ctx.Done():
						}
						cancel()
					}()
				}
				submits.Store(0)
				ctr.JobsDispatched.Store(0)
				ctr.LocalFallbacks.Store(0)
				err := sites[name](ctx)
				got := requests.Load()
				switch name {
				case "Run":
					got = submits.Load()
				case "RunReplicas":
					got = ctr.JobsDispatched.Load()
				}
				if got != int64(want) {
					t.Errorf("%s made %d attempts, want %d (err %v)", name, got, want, err)
				}
				if name == "RunReplicas" && tc.retry {
					// Every retry failed: the replica ran locally instead.
					if err != nil || ctr.LocalFallbacks.Load() != 1 {
						t.Errorf("RunReplicas = %v with %d local fallbacks, want nil after 1", err, ctr.LocalFallbacks.Load())
					}
					cancel()
					continue
				}
				if err == nil {
					t.Errorf("%s succeeded, want an error", name)
				} else if cluster.Retryable(ctx, err) != tc.retry {
					t.Errorf("Retryable(%s's %v) = %v, want %v", name, err, !tc.retry, tc.retry)
				}
				var ae *cluster.APIError
				if tc.status != 0 && (!errors.As(err, &ae) || ae.Status != tc.status) {
					t.Errorf("%s error %v does not carry a %d answer", name, err, tc.status)
				}
				if tc.cancel > 0 && !experiment.IsCancellation(err) {
					t.Errorf("%s canceled by its caller = %v, want a cancellation", name, err)
				}
				if tc.peer == nil && !errors.Is(err, syscall.ECONNREFUSED) {
					t.Errorf("%s error %v is not a refused connection", name, err)
				}
				cancel()
			}
		})
	}
}
