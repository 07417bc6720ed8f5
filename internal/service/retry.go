package service

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"syscall"
	"time"
)

// RetryPolicy shapes the client's transient-failure retries: capped
// exponential backoff with jitter. The zero value means the defaults
// (4 attempts, 100ms base, 2s cap).
type RetryPolicy struct {
	// MaxAttempts bounds attempts per request, first try included.
	// Negative disables retries entirely (one attempt).
	MaxAttempts int
	// BaseDelay doubles per retry up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed makes the jitter deterministic for tests (0 = 1).
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.MaxAttempts < 0 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// sleep blocks for the attempt's backoff (1-based retry count): capped
// exponential with half-fixed/half-jittered spread, the jitter drawn from
// a generator derived deterministically from (Seed, attempt).
func (p RetryPolicy) sleep(ctx context.Context, attempt int) error {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	rng := rand.New(rand.NewSource(p.Seed + int64(attempt)))
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// isTransient classifies an error as worth retrying: the daemon was
// restarting, the connection died mid-flight, or the network hiccuped.
// Context cancellation is never transient — it is the caller saying stop.
func isTransient(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// retryable reports whether a failed request should be reattempted:
// transient transport errors and 5xx responses, never 4xx (the request
// itself is wrong) and never context cancellation.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	return isTransient(err)
}

// do issues req-building requests until one succeeds, a non-retryable
// failure occurs, or the policy's attempts run out. Each attempt builds a
// fresh request via build (bodies cannot be replayed from a consumed
// reader). A non-2xx response is consumed into an *APIError; the returned
// response, when non-nil, is a 2xx whose body the caller owns.
//
// Retrying is safe for every daemon endpoint: submissions deduplicate on
// the spec's content hash (a replayed submit joins the first execution),
// and everything else is a read or an idempotent cancel.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error)) (*http.Response, error) {
	pol := c.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := pol.sleep(ctx, attempt); err != nil {
				return nil, errors.Join(err, lastErr)
			}
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req.WithContext(ctx))
		if err == nil {
			if resp.StatusCode/100 == 2 {
				return resp, nil
			}
			err = apiError(resp) // drains and closes the body
		}
		if !retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}
