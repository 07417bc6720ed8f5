package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sprinklers/internal/cluster"
	"sprinklers/internal/experiment"
)

// Client talks to a sprinklerd daemon. It is what `sweep -remote` uses: a
// spec built locally is submitted, progress is streamed, and the returned
// results feed the exact same renderers the local path uses — so remote
// and local output are byte-identical for the same spec. Requests go
// through http.DefaultClient, which has no timeout: streams run as long as
// their context allows. A failed request is retried under cluster.Retryable,
// up to retryAttempts in all, after cluster.Backoff from retryBase.
type Client struct {
	// BaseURL is the daemon address, e.g. "http://127.0.0.1:8356".
	BaseURL string
}

// The client's one retry budget: attempts per request, per stream
// failure run and per study in Run, and the base of the backoff between
// them (100, 200 and 400 ms before jitter).
const (
	retryAttempts = 4
	retryBase     = 100 * time.Millisecond
)

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + path
}

// do issues requests built by build until one answers 2xx, one fails for
// good (cluster.Retryable), or retryAttempts have failed. build makes a
// fresh request on ctx per attempt (a consumed body cannot be replayed). A
// non-2xx answer is consumed into a *cluster.APIError; a returned response
// is a 2xx whose body the caller owns.
//
// Retrying is safe for every daemon endpoint: submissions deduplicate on
// the spec's content hash (a replayed submit joins the first execution),
// and everything else is a read or an idempotent cancel.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 1; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			if resp.StatusCode/100 == 2 {
				return resp, nil
			}
			err = cluster.ReadError(resp)
		}
		if attempt == retryAttempts || !cluster.Retryable(ctx, err) {
			return nil, err
		}
		if err := cluster.Backoff(ctx, retryBase, attempt, err); err != nil {
			return nil, err
		}
	}
}

// studyFailed is the daemon's report that study id failed: terminal, so
// never retried.
func studyFailed(id, msg string) error {
	return cluster.Permanent(fmt.Errorf("sprinklerd: study %s failed: %s", id, msg))
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit submits spec and returns the study's status. A 200 means the
// submission joined an existing execution or finished study; a 202 means
// it started one (Status.Created).
func (c *Client) Submit(ctx context.Context, spec experiment.Spec) (StudyStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return StudyStatus{}, err
	}
	// Retrying a submit is safe: the study id is the spec's content hash,
	// so a replay whose first attempt actually landed joins that execution
	// instead of starting a second one.
	resp, err := c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/api/v1/studies"), bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	if err != nil {
		return StudyStatus{}, err
	}
	defer resp.Body.Close()
	var status StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return StudyStatus{}, err
	}
	return status, nil
}

// Trace fetches one study's merged trace timeline.
func (c *Client) Trace(ctx context.Context, id string) (TraceResponse, error) {
	var out TraceResponse
	err := c.getJSON(ctx, "/api/v1/trace/"+id, &out)
	return out, err
}

// TraceChrome streams one study's trace as Chrome trace-event JSON
// (Perfetto / chrome://tracing format) into w.
func (c *Client) TraceChrome(ctx context.Context, id string, w io.Writer) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.url("/api/v1/trace/"+id+"?format=chrome"), nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(w, resp.Body)
	return err
}

// cancel cancels a running study.
func (c *Client) cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodPost, c.url("/api/v1/studies/"+id+"/cancel"), nil)
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return nil
}

// Results fetches a study's result set; with wait it blocks server-side
// until the study reaches a terminal state.
func (c *Client) Results(ctx context.Context, id string, wait bool) (State, []experiment.PointResult, error) {
	path := "/api/v1/studies/" + id + "/results"
	if wait {
		path += "?wait=1"
	}
	var out resultsResponse
	if err := c.getJSON(ctx, path, &out); err != nil {
		return "", nil, err
	}
	if out.State == StateFailed {
		return out.State, out.Results, studyFailed(id, out.Error)
	}
	return out.State, out.Results, nil
}

// Stream consumes the study's SSE progress stream from event index from,
// invoking fn per point, and returns the study's terminal state.
//
// A dropped stream — the daemon restarted, the connection reset mid-event
// — is reconnected with ?from=<events consumed so far>, so across any
// number of drops fn sees every event exactly once, in order. Reconnection
// follows the same rule, budget and backoff as every request (see do); the
// budget resets whenever a connection makes progress.
func (c *Client) Stream(ctx context.Context, id string, from int, fn func(ProgressEvent)) (State, error) {
	for fails := 1; ; fails++ {
		state, n, err := c.streamOnce(ctx, id, from, fn)
		from += n
		if err == nil {
			return state, nil
		}
		if n > 0 {
			fails = 1
		}
		if fails == retryAttempts || !cluster.Retryable(ctx, err) {
			return "", err
		}
		if err := cluster.Backoff(ctx, retryBase, fails, err); err != nil {
			return "", err
		}
	}
}

// streamOnce consumes one SSE connection, reporting how many events it
// delivered so a reconnect resumes precisely after them.
func (c *Client) streamOnce(ctx context.Context, id string, from int, fn func(ProgressEvent)) (State, int, error) {
	path := fmt.Sprintf("/api/v1/studies/%s/events?from=%d", id, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode/100 != 2 {
		return "", 0, cluster.ReadError(resp)
	}
	defer resp.Body.Close()
	delivered := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024) // trajectory-bearing points can be large
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		// A terminal line carries "state"; point lines carry "point".
		var terminal struct {
			State State  `json:"state"`
			Error string `json:"error"`
		}
		if json.Unmarshal([]byte(data), &terminal) == nil && terminal.State != "" {
			if terminal.State == StateFailed {
				return terminal.State, delivered, studyFailed(id, terminal.Error)
			}
			return terminal.State, delivered, nil
		}
		var ev ProgressEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", delivered, fmt.Errorf("sprinklerd: bad event %q: %w", data, err)
		}
		delivered++
		if fn != nil {
			fn(ev)
		}
	}
	if err := sc.Err(); err != nil {
		return "", delivered, err
	}
	// A stream that ends cleanly without a terminal line is a daemon that
	// went away mid-study; classify it like a cut connection so the
	// reconnect loop resumes it.
	return "", delivered, fmt.Errorf("sprinklerd: progress stream for %s ended without a terminal state: %w",
		id, io.ErrUnexpectedEOF)
}

// Run is the whole remote round trip: submit, then stream progress until
// the study ends. The stream's events are the study's results in order
// (the daemon rebuilds event i from result i), so the returned results are
// the streamed points, in canonical grid order — exactly what a local
// RunStudy of the same spec returns — and the caller renders them with the
// same code paths. A study already finished at submission replays its
// events.
//
// Cancellation mirrors the local runner: if ctx is canceled mid-stream,
// the study is canceled server-side (best effort) and Run returns the
// recorded prefix alongside an error wrapping context.Canceled; a study
// canceled on the server by someone else reports the same way. Callers
// therefore handle local and remote cancellation with one errors.Is check.
func (c *Client) Run(ctx context.Context, spec experiment.Spec, progress func(ProgressEvent)) ([]experiment.PointResult, error) {
	status, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	var results []experiment.PointResult
	var state State
	for attempt := 1; ; attempt++ {
		state, err = c.Stream(ctx, status.ID, len(results), func(ev ProgressEvent) {
			results = append(results, ev.Point)
			if progress != nil {
				progress(ev)
			}
		})
		if ctx.Err() != nil {
			// Local cancel, on a fresh-but-bounded context (ours is dead,
			// and an unreachable daemon must not hang the caller forever).
			// Only the submission that STARTED the execution propagates the
			// cancel server-side: a joiner abandoning a deduplicated study
			// must not kill the run for every other client attached to it.
			bg, stop := context.WithTimeout(context.Background(), 30*time.Second)
			defer stop()
			if status.Created {
				c.cancel(bg, status.ID) //nolint:errcheck // best effort
				_, results, _ := c.Results(bg, status.ID, true)
				return results, fmt.Errorf("sprinklerd: study %s: %w", status.ID, ctx.Err())
			}
			_, results, _ := c.Results(bg, status.ID, false)
			return results, fmt.Errorf("sprinklerd: study %s (still running on the server): %w", status.ID, ctx.Err())
		}
		// A 404 mid-run means the daemon restarted and lost its in-memory
		// study table. The study id is the spec's content hash, so
		// resubmitting recreates the SAME study — resumed from the cache,
		// with no computed point recomputed — and the stream picks up at
		// the accumulated event index, so the caller sees every point
		// exactly once across the restart.
		var ae *cluster.APIError
		if err == nil || !errors.As(err, &ae) || ae.Status != http.StatusNotFound || attempt == retryAttempts {
			break
		}
		if status, err = c.Submit(ctx, spec); err != nil {
			return nil, err
		}
	}
	if err != nil {
		return nil, err
	}
	if state == StateCanceled {
		return results, fmt.Errorf("sprinklerd: study %s canceled on the server; %d points recorded: %w",
			status.ID, len(results), context.Canceled)
	}
	return results, nil
}
