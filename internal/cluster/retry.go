package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"
)

// Retries: the one backoff, error rule and non-2xx reader of the daemon
// client (service.Client) and the coordinator (RunReplicas). Each caller
// keeps its own loop and budget; what a failed request means, and how long
// to wait before the next one, is decided here.

// Retryable reports whether a failed request is worth another attempt.
// Every failure is, unless one of these holds:
//
//	failure                                     verdict
//	the caller's own ctx is done                stop: the caller said so
//	the peer answered 4xx (*APIError)           stop: the request is wrong
//	the answer is terminal (Permanent): the     stop: a replay cannot
//	  daemon reports the study failed, or the     change it
//	  coordinator could not build the request
//	anything else: a refused, reset or cut      retry
//	  connection, a 5xx, a body over its cap,
//	  a lease deadline, an undecodable reply
//
// A deadline of the request's own (a lease) is a transport failure like
// any other; only ctx, the caller's context, stops the retries.
func Retryable(ctx context.Context, err error) bool {
	var ae *APIError
	var pe *permanentError
	switch {
	case err == nil, ctx.Err() != nil, errors.As(err, &pe):
		return false
	case errors.As(err, &ae):
		return ae.Status/100 != 4
	}
	return true
}

// Permanent marks err as terminal: Retryable refuses it.
func Permanent(err error) error { return &permanentError{err} }

type permanentError struct{ Err error }

func (e *permanentError) Error() string { return e.Err.Error() }
func (e *permanentError) Unwrap() error { return e.Err }

// backoffDelay is the wait before retry attempt (1-based), before jitter:
// base, doubling per attempt, capped at 40×base.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d, ceil := base<<(attempt-1), 40*base
	if d > ceil || d <= 0 {
		return ceil
	}
	return d
}

// Backoff waits before retry attempt (1-based) of a request that failed
// with last: backoffDelay, half of it fixed and half jittered, so retries
// spread out without ever being immediate. If ctx ends first it returns
// errors.Join(ctx.Err(), last), which names both the cancellation and the
// failure being retried.
func Backoff(ctx context.Context, base time.Duration, attempt int, last error) error {
	d := backoffDelay(base, attempt)
	timer := time.NewTimer(d/2 + rand.N(d/2+1))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return errors.Join(ctx.Err(), last)
	}
}

// APIError is a non-2xx answer from a daemon: the HTTP status plus the
// {"error": ...} body. Callers branch on Status: Retryable stops on a 4xx,
// and the remote runner treats a 404 mid-stream as "the daemon restarted
// and forgot the study table" and resubmits.
type APIError struct {
	Status int
	Msg    string
}

func (e *APIError) Error() string { return e.Msg }

// ReadError consumes a non-2xx response into an *APIError, reading at most
// 64 KiB of its body and closing it.
func ReadError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &APIError{Status: resp.StatusCode, Msg: fmt.Sprintf("sprinklerd: %s (%s)", e.Error, resp.Status)}
	}
	return &APIError{Status: resp.StatusCode,
		Msg: fmt.Sprintf("sprinklerd: %s: %s", resp.Status, strings.TrimSpace(string(body)))}
}
