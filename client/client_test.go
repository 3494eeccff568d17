package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warped/internal/service"
)

// TestNewTrailingSlash: a base URL with a trailing slash must produce
// the same request paths as one without — "http://host/" used to yield
// "//jobs" paths, which some routers 404 or redirect.
func TestNewTrailingSlash(t *testing.T) {
	var gotPath atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath.Store(r.URL.Path)
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(map[string]string{"id": "j0", "status": "done"})
	}))
	defer ts.Close()

	for _, base := range []string{ts.URL, ts.URL + "/", ts.URL + "///"} {
		c := New(base)
		if _, err := c.Status(context.Background(), "j0"); err != nil {
			t.Fatalf("Status with base %q: %v", base, err)
		}
		if p := gotPath.Load().(string); p != "/v1/jobs/j0" {
			t.Errorf("base %q produced path %q, want /v1/jobs/j0", base, p)
		}
	}
}

// TestWaitHonors429RetryAfter: a loaded daemon may 429 the status
// poll; Wait must sleep the advertised Retry-After and keep polling
// instead of failing the wait.
func TestWaitHonors429RetryAfter(t *testing.T) {
	var polls atomic.Int32
	var retryAfterSeen atomic.Int64 // ns between the 429 and the next poll
	var rejectedAt atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/j1":
			switch polls.Add(1) {
			case 1:
				rejectedAt.Store(time.Now().UnixNano())
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusTooManyRequests)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "shedding load"})
			default:
				retryAfterSeen.CompareAndSwap(0, time.Now().UnixNano()-rejectedAt.Load())
				_ = json.NewEncoder(w).Encode(map[string]string{"id": "j1", "status": "done"})
			}
		case "/v1/jobs/j1/result":
			_ = json.NewEncoder(w).Encode(map[string]any{"id": "j1", "stats": map[string]any{}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.PollInterval = time.Millisecond
	res, err := c.Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Wait through a 429: %v", err)
	}
	if res.ID != "j1" {
		t.Errorf("result ID = %s, want j1", res.ID)
	}
	if got := time.Duration(retryAfterSeen.Load()); got < 900*time.Millisecond {
		t.Errorf("repoll after %v, want >= ~1s (the advertised Retry-After)", got)
	}
}

// TestWaitLongPollFitsDeadlines: every status request Wait sends
// carries a wait that fits inside the client's per-exchange deadlines,
// so a long-poll never reads as a failed exchange.
func TestWaitLongPollFitsDeadlines(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(base string) *Client
		max  time.Duration
	}{
		{"RequestTimeout 2s", func(base string) *Client {
			c := New(base)
			c.RequestTimeout = 2 * time.Second
			return c
		}, time.Second},
		{"New defaults", New, 15 * time.Second},
		{"no deadline", func(base string) *Client {
			return NewWithHTTPClient(base, &http.Client{})
		}, service.MaxWait},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var wait atomic.Value
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch r.URL.Path {
				case "/v1/jobs/j4":
					wait.Store(r.URL.Query().Get("wait"))
					_ = json.NewEncoder(w).Encode(map[string]string{"id": "j4", "status": "done"})
				case "/v1/jobs/j4/result":
					_ = json.NewEncoder(w).Encode(map[string]any{"id": "j4", "stats": map[string]any{}})
				}
			}))
			defer ts.Close()
			if _, err := tc.new(ts.URL).Wait(context.Background(), "j4"); err != nil {
				t.Fatalf("Wait: %v", err)
			}
			v, _ := wait.Load().(string)
			if d, err := time.ParseDuration(v); err != nil || d <= 0 || d > tc.max {
				t.Errorf("wait = %q, want a duration in (0, %v]", v, tc.max)
			}
		})
	}
}

// TestWaitRepollsAfterPollInterval: a daemon that ignores the wait and
// answers "running" at once is asked again after PollInterval, not in
// a hot loop.
func TestWaitRepollsAfterPollInterval(t *testing.T) {
	const interval = 50 * time.Millisecond
	var mu sync.Mutex
	var polls []time.Time
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/j5/result" {
			_ = json.NewEncoder(w).Encode(map[string]any{"id": "j5", "stats": map[string]any{}})
			return
		}
		mu.Lock()
		polls = append(polls, time.Now())
		n := len(polls)
		mu.Unlock()
		status := "running"
		if n == 4 {
			status = "done"
		}
		_ = json.NewEncoder(w).Encode(map[string]string{"id": "j5", "status": status})
	}))
	defer ts.Close()

	c := New(ts.URL)
	c.PollInterval = interval
	if _, err := c.Wait(context.Background(), "j5"); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(polls) != 4 {
		t.Fatalf("%d status requests, want 4", len(polls))
	}
	for i := 1; i < len(polls); i++ {
		if gap := polls[i].Sub(polls[i-1]); gap < interval {
			t.Errorf("status request %d came %v after the last, want >= %v", i+1, gap, interval)
		}
	}
}

// TestWaitResultFromStatus: Wait returns the result a done status
// carries, with no further exchange; a done status without one (a
// daemon that predates it) is followed by GET /result; and a status
// that is not done is never taken as a result, even one carrying a
// result.
func TestWaitResultFromStatus(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status string   // every answer but /result's
		gets   []string // the paths Wait requests, in order
		want   int      // the result's Attempts; 0: Wait returns no result
	}{
		{"done carries the result", `{"id":"j6","status":"done","result":{"stats":{"Cycles":7},"attempts":2}}`,
			[]string{"/v1/jobs/j6"}, 2},
		{"bare done falls back to /result", `{"id":"j6","status":"done"}`,
			[]string{"/v1/jobs/j6", "/v1/jobs/j6/result"}, 3},
		{"running is no result", `{"status":"running"}`, nil, 0},
		{"running with a result is no result", `{"id":"j6","status":"running","result":{"stats":{"Cycles":7},"attempts":2}}`, nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var gets []string
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				gets = append(gets, r.URL.Path)
				mu.Unlock()
				if r.URL.Path == "/v1/jobs/j6/result" && tc.want != 0 {
					_, _ = w.Write([]byte(`{"id":"j6","stats":{"Cycles":7},"attempts":3}`))
					return
				}
				_, _ = w.Write([]byte(tc.status))
			}))
			defer ts.Close()

			c := New(ts.URL)
			c.PollInterval = time.Millisecond
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			res, err := c.Wait(ctx, "j6")
			mu.Lock()
			defer mu.Unlock()
			if tc.want == 0 {
				if res != nil || !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("Wait = %+v, %v; want no result until the deadline", res, err)
				}
				for _, p := range gets {
					if p != "/v1/jobs/j6" {
						t.Errorf("Wait requested %s; want only status requests", p)
					}
				}
				return
			}
			if err != nil || res.ID != "j6" || res.Attempts != tc.want || res.Stats == nil || res.Stats.Cycles != 7 {
				t.Fatalf("Wait = %+v, %v; want j6 with 7 cycles in %d attempts", res, err, tc.want)
			}
			if strings.Join(gets, " ") != strings.Join(tc.gets, " ") {
				t.Errorf("Wait requested %v, want %v", gets, tc.gets)
			}
		})
	}
}

// TestWaitContextCancellable: cancelling the context returns promptly
// from Wait — including from inside a Retry-After backoff — and the
// polling goroutine does not leak past the return.
func TestWaitContextCancellable(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Forever running, with a long advertised backoff: the only way
		// out is the caller's context.
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "busy"})
	}))
	defer ts.Close()

	c := New(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := c.Wait(ctx, "j2"); done <- err }()

	// Let Wait enter the backoff sleep, then cancel.
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Wait after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait did not return within 2s of cancellation: poll goroutine leaked")
	}
}

// TestRequestTimeout: the per-request deadline bounds one exchange
// even when the caller's context has no deadline.
func TestRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)

	c := New(ts.URL)
	c.RequestTimeout = 50 * time.Millisecond
	start := time.Now()
	_, err := c.Status(context.Background(), "j3")
	if err == nil {
		t.Fatal("Status against a hung server returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("request took %v, want ~50ms (RequestTimeout)", elapsed)
	}
}

// TestSharedHTTPClient: NewWithHTTPClient routes exchanges through the
// caller's client, so a worker pool shares one transport.
func TestSharedHTTPClient(t *testing.T) {
	var calls atomic.Int32
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		calls.Add(1)
		return nil, errors.New("sentinel transport")
	})
	hc := &http.Client{Transport: rt}
	a := NewWithHTTPClient("http://a", hc)
	b := NewWithHTTPClient("http://b/", hc)
	_, _ = a.Status(context.Background(), "x")
	_, _ = b.Status(context.Background(), "x")
	if calls.Load() != 2 {
		t.Errorf("shared transport saw %d calls, want 2", calls.Load())
	}
	if b.Base() != "http://b" {
		t.Errorf("Base() = %q, want trailing slash trimmed", b.Base())
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
