package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"warped/internal/stats"
)

// heldExecutor admits every job and runs none: the test starts and
// finishes them itself.
type heldExecutor chan *Job

func (e heldExecutor) Admit(j *Job) error       { e <- j; return nil }
func (heldExecutor) Ready() error               { return nil }
func (heldExecutor) Stop(context.Context) error { return nil }

// TestStatusLongPoll pins the protocol of GET /v1/jobs/{id}?wait=D: a
// queued or running job answers when it finishes, when D passes or when
// the request ends; anything else answers at once.
func TestStatusLongPoll(t *testing.T) {
	held := make(heldExecutor, 2)
	s := NewServer("service", held, 0, nil, nil)
	submit := func(param uint32) *Job {
		t.Helper()
		if _, err := s.Submit(&JobSpec{Source: ".kernel tiny\n\texit\n", Params: []uint32{param}}); err != nil {
			t.Fatal(err)
		}
		return <-held
	}
	running, queued := submit(1), submit(2)
	running.Start()

	rows := []struct {
		name     string
		path     string
		finish   time.Duration // finish the running job after this long
		cancel   time.Duration // end the request after this long
		wantCode int
		wantBody string
		min, max time.Duration
	}{
		{name: "running job answers when it finishes", path: "/v1/jobs/" + running.id + "?wait=10s",
			finish: 100 * time.Millisecond, wantCode: http.StatusOK, wantBody: `"status":"done"`,
			min: 100 * time.Millisecond, max: 5 * time.Second},
		{name: "finished job answers at once", path: "/v1/jobs/" + running.id + "?wait=10s",
			wantCode: http.StatusOK, wantBody: `"status":"done"`, max: time.Second},
		{name: "unknown ID answers 404 at once", path: "/v1/jobs/j0123456789abcdef?wait=10s",
			wantCode: http.StatusNotFound, wantBody: `unknown job \"j0123456789abcdef\"`, max: time.Second},
		{name: "unparseable wait", path: "/v1/jobs/" + queued.id + "?wait=abc",
			wantCode: http.StatusBadRequest, wantBody: `invalid wait \"abc\"`, max: time.Second},
		{name: "negative wait", path: "/v1/jobs/" + queued.id + "?wait=-1s",
			wantCode: http.StatusBadRequest, wantBody: `invalid wait \"-1s\"`, max: time.Second},
		{name: "wait passes", path: "/v1/jobs/" + queued.id + "?wait=100ms",
			wantCode: http.StatusOK, wantBody: `"status":"queued"`, min: 100 * time.Millisecond, max: 5 * time.Second},
		{name: "cancelled request returns", path: "/v1/jobs/" + queued.id + "?wait=10s",
			cancel: 100 * time.Millisecond, wantCode: http.StatusOK, wantBody: `"status":"queued"`,
			min: 100 * time.Millisecond, max: 5 * time.Second},
		{name: "no wait answers at once", path: "/v1/jobs/" + queued.id,
			wantCode: http.StatusOK, wantBody: `"status":"queued"`, max: time.Second},
		{name: "wait above the cap is accepted", path: "/v1/jobs/" + running.id + "?wait=1h",
			wantCode: http.StatusOK, wantBody: `"status":"done"`, max: time.Second},
	}
	h := s.Handler()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			start := time.Now()
			if r.cancel > 0 {
				time.AfterFunc(r.cancel, cancel)
			}
			if r.finish > 0 {
				time.AfterFunc(r.finish, func() { running.Finish(&JobResult{Stats: &stats.Stats{}}, nil) })
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.path, nil).WithContext(ctx))
			took := time.Since(start)
			if rec.Code != r.wantCode || !strings.Contains(rec.Body.String(), r.wantBody) {
				t.Errorf("answered %d %s, want %d containing %s", rec.Code, rec.Body, r.wantCode, r.wantBody)
			}
			if took < r.min || took > r.max {
				t.Errorf("answered after %v, want between %v and %v", took, r.min, r.max)
			}
		})
	}

	// The cap: a wait above MaxWait holds a request for MaxWait.
	for v, want := range map[string]time.Duration{
		"": 0, "0s": 0, "500ms": 500 * time.Millisecond, "30s": MaxWait, "31s": MaxWait, "1h": MaxWait,
	} {
		if got, err := parseWait(v); err != nil || got != want {
			t.Errorf("parseWait(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
}
