package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"warped/internal/cluster"
	"warped/internal/metrics"
	"warped/internal/service"
)

// heldExecutor runs each admitted job on a real in-process worker, but
// only once release is closed, so a test can look at jobs that are
// admitted and not yet finished.
type heldExecutor struct {
	worker  *service.Server
	release <-chan struct{}
	active  sync.WaitGroup
}

func (e *heldExecutor) Admit(j *service.Job) error {
	e.active.Add(1)
	spec := j.Spec()
	go func() {
		defer e.active.Done()
		<-e.release
		j.Start()
		j.Finish(e.run(spec))
	}()
	return nil
}

func (e *heldExecutor) run(spec *service.JobSpec) (*service.JobResult, error) {
	resp, err := e.worker.Submit(spec)
	if err != nil {
		return nil, err
	}
	st, _ := e.worker.Wait(context.Background(), resp.ID, time.Minute)
	if st.Result != nil {
		return st.Result, nil
	}
	return nil, errors.New(st.Error)
}

func (e *heldExecutor) Ready() error { return nil }

func (e *heldExecutor) Stop(ctx context.Context) error {
	e.active.Wait()
	return e.worker.Drain(ctx)
}

// drainer is the part of a role's job table the contract drives
// directly.
type drainer interface{ Drain(context.Context) error }

// contractRole stands up warpd in one role. Its executions wait until
// release is closed.
type contractRole struct {
	name   string
	prefix string // the role's instrument prefix
	start  func(t *testing.T, release <-chan struct{}) (table drainer, base string, reg *metrics.Registry)
	// idle stands the role up with nothing to execute on.
	idle func(t *testing.T) (base string)
}

var contractRoles = []contractRole{
	{
		// The worker's job table over an executor that holds each job,
		// then runs it on a real worker.
		name:   "worker",
		prefix: "service",
		start: func(t *testing.T, release <-chan struct{}) (drainer, string, *metrics.Registry) {
			inner := service.New(service.Options{Workers: 1, QueueDepth: 4})
			t.Cleanup(func() { _ = inner.Drain(context.Background()) })
			reg := metrics.New()
			srv := service.NewServer("service", &heldExecutor{worker: inner, release: release}, 0, reg, nil)
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			t.Cleanup(func() { _ = srv.Drain(context.Background()) })
			return srv, ts.URL, reg
		},
		idle: func(t *testing.T) string {
			ts, _ := newWorker(t, service.Options{Workers: 1})
			return ts.URL
		},
	},
	{
		// A coordinator over one worker that holds the coordinator's
		// POST /v1/jobs, as TestClusterCoalescing does.
		name:   "coordinator",
		prefix: "cluster",
		start: func(t *testing.T, release <-chan struct{}) (drainer, string, *metrics.Registry) {
			hold := func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
						<-release
					}
					h.ServeHTTP(w, r)
				})
			}
			w, _ := newWrappedWorker(t, service.Options{Workers: 1, QueueDepth: 4}, hold)
			reg := metrics.New()
			co, c := newCoordinator(t, cluster.Options{
				Workers:       []string{w.URL},
				Metrics:       reg,
				ProbeInterval: time.Hour,
			})
			return co, c.Base(), reg
		},
		idle: func(t *testing.T) string {
			_, c := newCoordinator(t, cluster.Options{ProbeInterval: time.Hour})
			return c.Base()
		},
	},
}

// TestContractWorkerAndCoordinator runs one table of HTTP cases against
// a worker and a coordinator: both are the same job table, so every
// answer must be the same in both roles.
func TestContractWorkerAndCoordinator(t *testing.T) {
	for _, role := range contractRoles {
		t.Run(role.name, func(t *testing.T) {
			release := make(chan struct{})
			var once sync.Once
			table, base, reg := role.start(t, release)
			t.Cleanup(func() { once.Do(func() { close(release) }) }) // runs first: never leave a job held

			call := func(t *testing.T, method, path, body string) (int, http.Header, map[string]any) {
				t.Helper()
				req, err := http.NewRequest(method, base+path, strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				defer resp.Body.Close()
				var out map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("%s %s: decoding answer: %v", method, path, err)
				}
				return resp.StatusCode, resp.Header, out
			}
			waitFor := func(t *testing.T, id, want string) {
				t.Helper()
				deadline := time.Now().Add(30 * time.Second)
				for {
					_, _, st := call(t, http.MethodGet, "/v1/jobs/"+id, "")
					if st["status"] == want {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("job %s is %v, want %s", id, st["status"], want)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			counter := func(name string) int64 { return reg.Snapshot().Counters[role.prefix+"."+name] }

			job := `{"source": ".kernel tiny\n\tmov r0, %tid.x\n\texit\n"}`
			fresh := `{"source": ".kernel tiny\n\tmov r0, %tid.x\n\texit\n", "params": [1]}`
			bad := `{"source": ".kernel bad\n\tbogus r0\n"}`
			// Word tid is stored and word tid+1 loaded with no barrier:
			// a race across warps at the 64-thread launch geometry.
			racy := `{"source": ".kernel racy\n.reg 4\n.shared 512\nmov r0, %tid.x\nshl r1, r0, 2\nmov r2, 1\nst.shared [r1], r2\nld.shared r3, [r1+4]\nexit\n", "block_x": 64}`
			var id string

			cases := []struct {
				name string
				run  func(t *testing.T)
			}{
				{"fresh submit is queued", func(t *testing.T) {
					code, _, out := call(t, http.MethodPost, "/v1/jobs", job)
					if code != http.StatusAccepted || out["status"] != "queued" || out["coalesced"] != nil || out["cached"] != nil {
						t.Errorf("fresh submit = %d %v, want 202 queued", code, out)
					}
					id, _ = out["id"].(string)
				}},
				{"duplicate submit coalesces", func(t *testing.T) {
					code, _, out := call(t, http.MethodPost, "/v1/jobs", job)
					if code != http.StatusAccepted || out["coalesced"] != true || out["id"] != id {
						t.Errorf("duplicate submit = %d %v, want 202 coalesced onto %s", code, out, id)
					}
					if st := out["status"]; st != "queued" && st != "running" {
						t.Errorf("duplicate of an unfinished job has status %v", st)
					}
				}},
				{"unfinished result is 409 with Retry-After", func(t *testing.T) {
					code, hdr, _ := call(t, http.MethodGet, "/v1/jobs/"+id+"/result", "")
					if code != http.StatusConflict || hdr.Get("Retry-After") != "1" {
						t.Errorf("unfinished result = %d Retry-After %q, want 409 and 1", code, hdr.Get("Retry-After"))
					}
				}},
				{"unknown ID is 404", func(t *testing.T) {
					for _, path := range []string{"/v1/jobs/jdeadbeefdeadbeef", "/v1/jobs/jdeadbeefdeadbeef/result"} {
						if code, _, _ := call(t, http.MethodGet, path, ""); code != http.StatusNotFound {
							t.Errorf("GET %s = %d, want 404", path, code)
						}
					}
				}},
				{"too many faults is 400", func(t *testing.T) {
					spec := `{"benchmark":"SHA","faults":{"random":2000000,"kind":"transient"},"seed":7}`
					code, _, out := call(t, http.MethodPost, "/v1/jobs", spec)
					msg, _ := out["error"].(string)
					if code != http.StatusBadRequest || !strings.Contains(msg, "2000000 random") || !strings.Contains(msg, "limit of 64") {
						t.Errorf("2000000 random faults = %d %q, want 400 naming the count and the limit", code, msg)
					}
				}},
				{"over-limit ReplayQ is 400", func(t *testing.T) {
					spec := `{"benchmark":"SHA","config":{"replayq":10000000}}`
					code, _, out := call(t, http.MethodPost, "/v1/jobs", spec)
					msg, _ := out["error"].(string)
					if code != http.StatusBadRequest || !strings.Contains(msg, "config.replayq 10000000") || !strings.Contains(msg, "limit of 128") {
						t.Errorf("replayq 10000000 = %d %q, want 400 naming the field, the value and the limit", code, msg)
					}
				}},
				{"over-limit block and shared memory are 400", func(t *testing.T) {
					for _, tc := range []struct{ spec, want string }{
						{`{"source": ".kernel tiny\n\texit\n", "block_x": 4294967296, "block_y": 4294967296}`,
							"block_x 4294967296 x block_y 4294967296 exceeds the limit of 1024 threads"},
						{`{"source": ".kernel tiny\n\texit\n", "block_x": 64, "block_y": 32}`,
							"block_x 64 x block_y 32 exceeds the limit of 1024 threads"},
						{`{"source": ".kernel tiny\n\texit\n", "shared_bytes": 65537}`,
							"shared_bytes 65537 exceeds the limit of 65536"},
					} {
						code, _, out := call(t, http.MethodPost, "/v1/jobs", tc.spec)
						if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
							t.Errorf("%s = %d %q, want 400 naming %q", tc.spec, code, msg, tc.want)
						}
					}
				}},
				{"resubmit after done is cached", func(t *testing.T) {
					once.Do(func() { close(release) })
					waitFor(t, id, "done")
					code, _, out := call(t, http.MethodPost, "/v1/jobs", job)
					if code != http.StatusOK || out["cached"] != true || out["status"] != "done" || out["id"] != id {
						t.Errorf("resubmit = %d %v, want 200 cached done", code, out)
					}
				}},
				{"failed job is 500 and executes again", func(t *testing.T) {
					_, _, out := call(t, http.MethodPost, "/v1/jobs", bad)
					badID, _ := out["id"].(string)
					waitFor(t, badID, "failed")
					if code, _, _ := call(t, http.MethodGet, "/v1/jobs/"+badID+"/result", ""); code != http.StatusInternalServerError {
						t.Errorf("failed result = %d, want 500", code)
					}
					executed := counter("jobs_executed_total")
					code, _, out := call(t, http.MethodPost, "/v1/jobs", bad)
					if code != http.StatusAccepted || out["cached"] != nil {
						t.Errorf("resubmitted failed job = %d %v, want 202 fresh", code, out)
					}
					waitFor(t, badID, "failed")
					if got := counter("jobs_executed_total"); got != executed+1 {
						t.Errorf("jobs_executed_total = %d after resubmitting a failed job, want %d", got, executed+1)
					}
				}},
				{"failed job reads as on a worker", func(t *testing.T) {
					_, _, out := call(t, http.MethodPost, "/v1/jobs", bad)
					badID, _ := out["id"].(string)
					waitFor(t, badID, "failed")
					_, _, st := call(t, http.MethodGet, "/v1/jobs/"+badID, "")
					want := "job:" + badID + `: line 2: unknown mnemonic "bogus"`
					if msg, _ := st["error"].(string); msg != want || strings.Contains(msg, "client: daemon answered") {
						t.Errorf("failed job error = %q, want the worker's own %q", msg, want)
					}
				}},
				{"kernel racing at its launch geometry fails", func(t *testing.T) {
					_, _, out := call(t, http.MethodPost, "/v1/jobs", racy)
					racyID, _ := out["id"].(string)
					waitFor(t, racyID, "failed")
					_, _, st := call(t, http.MethodGet, "/v1/jobs/"+racyID, "")
					if msg, _ := st["error"].(string); !strings.Contains(msg, "job:"+racyID) || !strings.Contains(msg, "shared-race") {
						t.Errorf("racy job error = %q, want it to cite job:%s and shared-race", msg, racyID)
					}
				}},
				{"draining serves hits and refuses fresh work", func(t *testing.T) {
					if err := table.Drain(context.Background()); err != nil {
						t.Fatalf("Drain: %v", err)
					}
					if code, _, out := call(t, http.MethodPost, "/v1/jobs", job); code != http.StatusOK || out["cached"] != true {
						t.Errorf("cached resubmit while draining = %d %v, want 200 cached", code, out)
					}
					if code, _, _ := call(t, http.MethodPost, "/v1/jobs", fresh); code != http.StatusServiceUnavailable {
						t.Errorf("fresh submit while draining = %d, want 503", code)
					}
					if code, _, _ := call(t, http.MethodGet, "/readyz", ""); code != http.StatusServiceUnavailable {
						t.Errorf("readyz while draining = %d, want 503", code)
					}
				}},
				{"accounting identities hold", func(t *testing.T) {
					sub, hits, misses := counter("jobs_submitted_total"), counter("cache_hits_total"), counter("cache_misses_total")
					if coal := counter("cache_coalesced_total"); sub != hits+misses+coal {
						t.Errorf("jobs_submitted %d != cache_hits %d + cache_misses %d + cache_coalesced %d", sub, hits, misses, coal)
					}
					if exec := counter("jobs_executed_total"); misses != exec {
						t.Errorf("cache_misses %d != jobs_executed %d", misses, exec)
					}
					if got := counter("jobs_rejected_total"); got != 1 {
						t.Errorf("jobs_rejected_total = %d, want 1 (the fresh submit while draining)", got)
					}
				}},
				{"benchmarks are served with nothing to run on", func(t *testing.T) {
					resp, err := http.Get(role.idle(t) + "/v1/benchmarks")
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var out struct{ Benchmarks []string }
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK || len(out.Benchmarks) == 0 {
						t.Errorf("GET /v1/benchmarks = %d %v (%v), want 200 and a list", resp.StatusCode, out.Benchmarks, err)
					}
				}},
			}
			for _, tc := range cases {
				t.Run(tc.name, tc.run)
			}
		})
	}
}
