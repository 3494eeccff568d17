// Package client is the typed Go client of the warpd daemon
// (cmd/warpd): submit simulation jobs and wait for their deterministic
// results over the HTTP/JSON API documented in docs/SERVICE.md.
//
// Quick start:
//
//	c := client.New("http://localhost:8080")
//	resp, err := c.Submit(ctx, &client.JobSpec{Benchmark: "MatrixMul"})
//	res, err := c.Wait(ctx, resp.ID)
//	fmt.Printf("coverage stats: %+v\n", res.Stats)
//
// Submit retries transparently on backpressure (HTTP 429, honouring
// Retry-After) and transient transport failures with capped
// exponential backoff; a draining daemon (503) and spec errors (4xx)
// fail fast. Wait long-polls the job's status, so it returns as soon
// as the daemon finishes the job rather than on a polling timer, and
// the status answer that reports the job done carries its result: a
// job costs two exchanges, the submission and one status request.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"warped/internal/service"
)

// Wire types, shared with the daemon so the two ends cannot drift.
type (
	// JobSpec is one simulation job (see docs/SERVICE.md for the
	// schema). Its Policy field selects a selective-protection policy
	// (docs/POLICIES.md); jobs differing only in policy are distinct
	// cache entries.
	JobSpec = service.JobSpec
	// ConfigSpec selects and overrides the machine configuration.
	ConfigSpec = service.ConfigSpec
	// FaultSpec is a fault-injection campaign.
	FaultSpec = service.FaultSpec
	// FaultDef is one explicit fault.
	FaultDef = service.FaultDef
	// SubmitResponse answers a submission.
	SubmitResponse = service.SubmitResponse
	// StatusResponse answers a status poll.
	StatusResponse = service.StatusResponse
	// ResultResponse carries a finished job's statistics.
	ResultResponse = service.ResultResponse
)

// ErrDraining is returned by Submit when the daemon is shutting down
// and no longer admits jobs.
var ErrDraining = errors.New("client: daemon is draining")

// APIError is a non-2xx daemon answer that is not retried, or Wait's
// answer for a failed job.
type APIError struct {
	StatusCode int
	Message    string

	// JobError is the error of a job that failed on the daemon, as its
	// failed status reports it; empty for any other answer.
	JobError string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: daemon answered %d: %s", e.StatusCode, e.Message)
}

// Client talks to one warpd daemon. The zero value is not usable; use
// New.
type Client struct {
	base string
	http *http.Client

	// MaxRetries bounds Submit's backpressure/transport retries
	// (default 5).
	MaxRetries int

	// Backoff is the initial retry delay, doubled per attempt and
	// capped at 32x (default 100ms). A server Retry-After overrides it.
	Backoff time.Duration

	// PollInterval is how long Wait pauses after a status answer that
	// is not final, before it asks again (default 50ms).
	PollInterval time.Duration

	// RequestTimeout, when positive, bounds each individual HTTP
	// exchange (connect + request + response body) via a per-request
	// deadline, independent of the caller's ctx and of the underlying
	// http.Client.Timeout. A coordinator probing a dead worker wants a
	// tight bound here without capping total job wall time.
	RequestTimeout time.Duration
}

// New builds a client for the daemon at base (e.g.
// "http://localhost:8080"). A trailing slash on base is tolerated.
func New(base string) *Client {
	return NewWithHTTPClient(base, &http.Client{Timeout: 30 * time.Second})
}

// NewWithHTTPClient builds a client that performs its exchanges on hc,
// so a pool of clients (one per cluster worker) can share one
// transport and its connection pool instead of dialing per worker.
func NewWithHTTPClient(base string, hc *http.Client) *Client {
	return &Client{
		base:         strings.TrimRight(base, "/"),
		http:         hc,
		MaxRetries:   5,
		Backoff:      100 * time.Millisecond,
		PollInterval: 50 * time.Millisecond,
	}
}

// Base returns the daemon base URL this client talks to.
func (c *Client) Base() string { return c.base }

// Submit posts one job. Backpressure (429) and transport errors are
// retried with backoff; 503 fails fast with ErrDraining, other non-2xx
// answers fail fast with *APIError.
func (c *Client) Submit(ctx context.Context, spec *JobSpec) (*SubmitResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: encoding spec: %w", err)
	}
	retries := c.MaxRetries
	if retries <= 0 {
		retries = 5
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, backoff); err != nil {
				return nil, err
			}
			if backoff < 32*c.Backoff {
				backoff *= 2
			}
		}
		resp, err := c.post(ctx, "/v1/jobs", body)
		if err != nil {
			lastErr = err // transport trouble: retry
			continue
		}
		switch resp.code {
		case http.StatusOK, http.StatusAccepted:
			var out SubmitResponse
			if err := json.Unmarshal(resp.body, &out); err != nil {
				return nil, fmt.Errorf("client: decoding response: %w", err)
			}
			return &out, nil
		case http.StatusTooManyRequests:
			lastErr = &APIError{StatusCode: resp.code, Message: resp.errMsg()}
			if d := resp.retryAfter; d > 0 {
				if err := sleep(ctx, d); err != nil {
					return nil, err
				}
			}
		case http.StatusServiceUnavailable:
			return nil, fmt.Errorf("%w: %s", ErrDraining, resp.errMsg())
		default:
			return nil, &APIError{StatusCode: resp.code, Message: resp.errMsg()}
		}
	}
	return nil, fmt.Errorf("client: submit gave up after %d retries: %w", retries, lastErr)
}

// Status reads one job's lifecycle state, without waiting.
func (c *Client) Status(ctx context.Context, id string) (*StatusResponse, error) {
	resp, err := c.get(ctx, "/v1/jobs/"+id)
	if err != nil {
		return nil, err
	}
	if resp.code != http.StatusOK {
		return nil, &APIError{StatusCode: resp.code, Message: resp.errMsg()}
	}
	var out StatusResponse
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("client: decoding status: %w", err)
	}
	return &out, nil
}

// Result fetches a finished job's result. A job that is still running
// answers *APIError with StatusCode 409; use Wait to block instead.
func (c *Client) Result(ctx context.Context, id string) (*ResultResponse, error) {
	resp, err := c.get(ctx, "/v1/jobs/"+id+"/result")
	if err != nil {
		return nil, err
	}
	if resp.code != http.StatusOK {
		return nil, &APIError{StatusCode: resp.code, Message: resp.errMsg()}
	}
	var out ResultResponse
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("client: decoding result: %w", err)
	}
	return &out, nil
}

// Wait blocks until the job finishes and returns its result; a failed
// job returns the daemon's error as *APIError, with JobError set. Each
// status request is a long-poll (?wait=D) that the daemon answers when
// the job finishes, so Wait returns as soon as it does, with the result
// the done status carries. A done status without one (a daemon that
// predates it) is followed by a Result request. D is the daemon's 30 s
// cap, lowered to half of RequestTimeout and half of the http.Client's
// Timeout when those are set, so that a long-poll never reads as a
// failed exchange.
// A status answer that is not final (the wait expired, or the daemon
// ignores it) is asked again after PollInterval. A 429 answer (a loaded
// daemon shedding read traffic) is not fatal: Wait honors its
// Retry-After and asks again. The loop is bounded only by ctx —
// cancelling it returns promptly, from inside a long-poll or a backoff
// sleep alike.
func (c *Client) Wait(ctx context.Context, id string) (*ResultResponse, error) {
	interval := c.PollInterval
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	path := "/v1/jobs/" + id + "?wait=" + c.longPoll().String()
	for {
		resp, err := c.get(ctx, path)
		if err != nil {
			return nil, err
		}
		switch resp.code {
		case http.StatusOK:
			var st StatusResponse
			if err := json.Unmarshal(resp.body, &st); err != nil {
				return nil, fmt.Errorf("client: decoding status: %w", err)
			}
			switch st.Status {
			case "done":
				if st.Result != nil && st.Result.Stats != nil {
					return &ResultResponse{ID: id, JobResult: *st.Result}, nil
				}
				return c.Result(ctx, id)
			case "failed":
				return nil, &APIError{StatusCode: http.StatusInternalServerError,
					Message: fmt.Sprintf("job %s failed: %s", id, st.Error), JobError: st.Error}
			}
		case http.StatusTooManyRequests:
			if d := resp.retryAfter; d > 0 {
				if err := sleep(ctx, d); err != nil {
					return nil, err
				}
				continue
			}
		default:
			return nil, &APIError{StatusCode: resp.code, Message: resp.errMsg()}
		}
		if err := sleep(ctx, interval); err != nil {
			return nil, err
		}
	}
}

// longPoll is how long Wait asks the daemon to hold each status
// request: its cap, or half of any per-exchange deadline below it.
func (c *Client) longPoll() time.Duration {
	d := service.MaxWait
	if c.RequestTimeout > 0 {
		d = min(d, c.RequestTimeout/2)
	}
	if c.http.Timeout > 0 {
		d = min(d, c.http.Timeout/2)
	}
	return d
}

// Ready reports whether the daemon is accepting jobs (readiness
// probe; a draining daemon is alive but not ready).
func (c *Client) Ready(ctx context.Context) (bool, error) {
	resp, err := c.get(ctx, "/readyz")
	if err != nil {
		return false, err
	}
	return resp.code == http.StatusOK, nil
}

// Benchmarks lists the workloads the daemon can run by name.
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	resp, err := c.get(ctx, "/v1/benchmarks")
	if err != nil {
		return nil, err
	}
	if resp.code != http.StatusOK {
		return nil, &APIError{StatusCode: resp.code, Message: resp.errMsg()}
	}
	var out struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("client: decoding benchmarks: %w", err)
	}
	return out.Benchmarks, nil
}

// reply is one decoded HTTP exchange.
type reply struct {
	code       int
	body       []byte
	retryAfter time.Duration
}

// errMsg extracts the daemon's error envelope, falling back to the
// raw body.
func (r *reply) errMsg() string {
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(r.body, &e); err == nil && e.Error != "" {
		return e.Error
	}
	return string(r.body)
}

func (c *Client) post(ctx context.Context, path string, body []byte) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *Client) get(ctx context.Context, path string) (*reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *Client) do(req *http.Request) (*reply, error) {
	if c.RequestTimeout > 0 {
		ctx, cancel := context.WithTimeout(req.Context(), c.RequestTimeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	r := &reply{code: resp.StatusCode, body: body}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			r.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return r, nil
}

// sleep waits d or until ctx fires.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
