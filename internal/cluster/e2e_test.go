package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warped"
	"warped/client"
	"warped/internal/cluster"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/store"
)

// tinySrc is a near-instant inline kernel for coalescing/failover
// tests.
const tinySrc = `
.kernel tiny
	mov  r0, %tid.x
	iadd r1, r0, 1
	exit
`

// newWorker spins up one real warpd worker over httptest.
func newWorker(t *testing.T, opt service.Options) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	return newWrappedWorker(t, opt, func(h http.Handler) http.Handler { return h })
}

// newWrappedWorker is newWorker with the worker's handler wrapped, so a
// test can intercept the requests the coordinator sends it.
func newWrappedWorker(t *testing.T, opt service.Options, wrap func(http.Handler) http.Handler) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	if opt.Metrics == nil {
		opt.Metrics = metrics.New()
	}
	srv := service.New(opt)
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	t.Cleanup(func() { _ = srv.Drain(context.Background()) })
	return ts, opt.Metrics
}

// newCoordinator wires a coordinator over the given worker URLs and
// serves it over httptest, returning a client pointed at it. Drain is
// registered before the server Close so in-flight dispatches are
// cancelled while the test servers still accept connections.
func newCoordinator(t *testing.T, opts cluster.Options) (*cluster.Coordinator, *client.Client) {
	t.Helper()
	return newWrappedCoordinator(t, opts, func(h http.Handler) http.Handler { return h })
}

// newWrappedCoordinator is newCoordinator with the coordinator's
// handler wrapped, so a test can intercept the requests its clients
// send it.
func newWrappedCoordinator(t *testing.T, opts cluster.Options, wrap func(http.Handler) http.Handler) (*cluster.Coordinator, *client.Client) {
	t.Helper()
	co := cluster.New(opts)
	ts := httptest.NewServer(wrap(co.Handler()))
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = co.Drain(ctx)
	})
	c := client.New(ts.URL)
	c.PollInterval = 5 * time.Millisecond
	return co, c
}

// TestClusterStatsMatchDirectRun is the acceptance check: a benchmark
// job submitted through a 2-worker coordinator answers byte-identical
// stats to a direct library run — sharding, dispatch, and the durable
// store must never change the science.
func TestClusterStatsMatchDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full MatrixMul run")
	}
	w1, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	w2, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL, w2.URL},
		Store:         openStore(t, t.TempDir()),
		ProbeInterval: time.Hour, // keep probes out of this test
	})
	ctx := context.Background()

	resp, err := c.Submit(ctx, &client.JobSpec{Benchmark: "MatrixMul"})
	if err != nil {
		t.Fatalf("Submit through coordinator: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}

	direct, err := (&warped.Runner{}).Run(ctx, "MatrixMul")
	if err != nil {
		t.Fatalf("direct Run: %v", err)
	}
	got, _ := json.Marshal(res.Stats)
	want, _ := json.Marshal(direct.Stats)
	if string(got) != string(want) {
		t.Errorf("cluster stats differ from direct run:\ncluster: %s\ndirect:  %s", got, want)
	}
	if res.Attempts != direct.Attempts || res.Detections != direct.Detections {
		t.Errorf("bookkeeping differs: cluster {%d %d}, direct {%d %d}",
			res.Attempts, res.Detections, direct.Attempts, direct.Detections)
	}
}

// TestClusterLongPollExchanges: a fresh job through a coordinator takes
// two exchanges on each hop, client to coordinator and coordinator to
// worker: the submission and one status request, a long-poll that
// answers when the job finishes and carries its result.
func TestClusterLongPollExchanges(t *testing.T) {
	type hop struct{ submit, status, result, other atomic.Int32 }
	count := func(n *hop) func(http.Handler) http.Handler {
		return func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
					n.submit.Add(1)
				case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") &&
					strings.HasSuffix(r.URL.Path, "/result"):
					n.result.Add(1)
				case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
					n.status.Add(1)
				default:
					n.other.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		}
	}
	var worker, coord hop
	w, _ := newWrappedWorker(t, service.Options{Workers: 1, QueueDepth: 4}, count(&worker))
	_, c := newWrappedCoordinator(t, cluster.Options{
		Workers: []string{w.URL},
		// A worker long-poll waits half of this: 30 s outlasts the job
		// even on a loaded machine under the race detector.
		RequestTimeout: time.Minute,
		ProbeInterval:  time.Hour,
	}, count(&coord))
	ctx := context.Background()
	resp, err := c.Submit(ctx, &client.JobSpec{Benchmark: "SHA"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if resp.Cached {
		t.Fatalf("Submit = %+v, want a fresh job", resp)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Stats == nil || res.Stats.WarpInstrs == 0 {
		t.Errorf("Wait = %+v, want the job's stats", res)
	}
	for _, h := range []struct {
		name string
		n    *hop
	}{{"coordinator to worker", &worker}, {"client to coordinator", &coord}} {
		if s, st, r, o := h.n.submit.Load(), h.n.status.Load(), h.n.result.Load(), h.n.other.Load(); s != 1 || st != 1 || r != 0 || o != 0 {
			t.Errorf("%s: %d submit, %d status, %d result and %d other exchanges; want 1 submit and 1 status",
				h.name, s, st, r, o)
		}
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestClusterCoalescing: N concurrent identical submissions from
// different callers produce exactly one dispatch to the pool and one
// worker-side execution.
func TestClusterCoalescing(t *testing.T) {
	// The workers hold the coordinator's dispatch until every Submit
	// below has returned. Dispatch is asynchronous, so each submission
	// finds the job still in flight however fast a worker would finish
	// it, and the coalescing count is exact rather than a race.
	release := make(chan struct{})
	var releaseOnce sync.Once
	releaseDispatch := func() { releaseOnce.Do(func() { close(release) }) }
	holdSubmits := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				<-release
			}
			h.ServeHTTP(w, r)
		})
	}
	w1, reg1 := newWrappedWorker(t, service.Options{Workers: 2, QueueDepth: 16}, holdSubmits)
	w2, reg2 := newWrappedWorker(t, service.Options{Workers: 2, QueueDepth: 16}, holdSubmits)
	reg := metrics.New()
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL, w2.URL},
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	t.Cleanup(releaseDispatch) // runs first: never leave a handler blocked
	ctx := context.Background()

	spec := &client.JobSpec{Source: tinySrc}
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("Submit %d: %v", i, err)
				return
			}
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()
	releaseDispatch()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got ID %s, submission 0 got %s", i, ids[i], ids[0])
		}
	}
	if _, err := c.Wait(ctx, ids[0]); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["cluster.dispatches_total"]; got != 1 {
		t.Errorf("cluster.dispatches_total = %d after %d identical submissions, want 1", got, n)
	}
	if got := snap.Counters["cluster.cache_coalesced_total"]; got != n-1 {
		t.Errorf("cluster.cache_coalesced_total = %d, want %d", got, n-1)
	}
	executed := reg1.Snapshot().Counters["service.jobs_executed_total"] +
		reg2.Snapshot().Counters["service.jobs_executed_total"]
	if executed != 1 {
		t.Errorf("workers executed the job %d times, want exactly 1", executed)
	}

	// A later identical submission is a coordinator memory hit — no new
	// dispatch, answered done immediately.
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !resp.Cached || resp.Status != "done" {
		t.Errorf("resubmit = %+v, want cached done", resp)
	}
	if got := reg.Snapshot().Counters["cluster.dispatches_total"]; got != 1 {
		t.Errorf("dispatches_total = %d after resubmit, want still 1", got)
	}
}

// primaryFor reproduces the coordinator's placement for a spec over a
// worker pool, so tests can make the primary the faulty one and pin
// failover behavior deterministically.
func primaryFor(t *testing.T, spec *client.JobSpec, workers ...string) string {
	t.Helper()
	hash, _, err := service.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := cluster.NewRing(0)
	for _, w := range workers {
		r.Add(w)
	}
	primary, ok := r.Pick(hash)
	if !ok {
		t.Fatal("empty test ring")
	}
	return primary
}

// TestClusterRedispatchOnDrainingWorker: the job's primary worker is
// draining (503s every submission); the coordinator re-dispatches to
// the next ring node and the caller sees a clean result, no error.
func TestClusterRedispatchOnDrainingWorker(t *testing.T) {
	good, goodReg := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" || r.Method == http.MethodPost {
			w.Header().Set("Retry-After", "5")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "service: draining"})
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(draining.Close)

	spec := &client.JobSpec{Source: tinySrc}
	if primaryFor(t, spec, good.URL, draining.URL) != draining.URL {
		// Placement is content-addressed: perturb the spec until it
		// lands on the draining worker so the test always exercises the
		// failover path.
		for i := 0; i < 1000; i++ {
			spec.Params = []uint32{uint32(i)}
			if primaryFor(t, spec, good.URL, draining.URL) == draining.URL {
				break
			}
		}
	}
	if primaryFor(t, spec, good.URL, draining.URL) != draining.URL {
		t.Fatal("could not steer a spec onto the draining worker")
	}

	reg := metrics.New()
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{good.URL, draining.URL},
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	ctx := context.Background()
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait through a draining primary: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("nil stats through failover")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.redispatches_total"]; got != 1 {
		t.Errorf("redispatches_total = %d, want 1", got)
	}
	if got := goodReg.Snapshot().Counters["service.jobs_executed_total"]; got != 1 {
		t.Errorf("good worker executed %d jobs, want 1", got)
	}
}

// TestClusterWorkerDiesMidJob: the primary accepts the job then its
// connections start dying (the worker was killed). The coordinator
// ejects it, re-dispatches to the successor, and the caller still gets
// the correct result.
func TestClusterWorkerDiesMidJob(t *testing.T) {
	good, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})

	// The dying worker: admits the submission with the correct content
	// address, then kills the connection of every status poll — exactly
	// what a caller sees when a worker process is SIGKILLed mid-job.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			data, _ := io.ReadAll(r.Body)
			spec, err := service.ParseSpec(data)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_, id, err := service.SpecKey(spec)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(map[string]string{"id": id, "status": "queued"})
			return
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server does not support hijacking")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(dying.Close)

	spec := &client.JobSpec{Source: tinySrc}
	if primaryFor(t, spec, good.URL, dying.URL) != dying.URL {
		for i := 0; i < 1000; i++ {
			spec.Params = []uint32{uint32(i)}
			if primaryFor(t, spec, good.URL, dying.URL) == dying.URL {
				break
			}
		}
	}
	if primaryFor(t, spec, good.URL, dying.URL) != dying.URL {
		t.Fatal("could not steer a spec onto the dying worker")
	}

	reg := metrics.New()
	co, c := newCoordinator(t, cluster.Options{
		Workers:       []string{good.URL, dying.URL},
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	ctx := context.Background()
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait through a dying primary: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("nil stats through failover")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["cluster.redispatches_total"]; got != 1 {
		t.Errorf("redispatches_total = %d, want 1", got)
	}
	if got := snap.Counters["cluster.worker_ejections_total"]; got != 1 {
		t.Errorf("worker_ejections_total = %d, want 1 (dead worker ejected synchronously)", got)
	}
	if co.Healthy(dying.URL) {
		t.Error("dying worker still on the ring after a dead-connection dispatch")
	}
}

// TestClusterLatencyHedge: a primary that sits on the job past
// HedgeAfter triggers a concurrent hedge dispatch; the fast successor
// wins and the caller never notices.
func TestClusterLatencyHedge(t *testing.T) {
	good, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})

	// The slow worker admits the job and then reports "running" forever.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			data, _ := io.ReadAll(r.Body)
			spec, err := service.ParseSpec(data)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			_, id, _ := service.SpecKey(spec)
			w.WriteHeader(http.StatusAccepted)
			_ = json.NewEncoder(w).Encode(map[string]string{"id": id, "status": "queued"})
		case r.URL.Path == "/readyz":
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
		default:
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "running"})
		}
	}))
	t.Cleanup(slow.Close)

	spec := &client.JobSpec{Source: tinySrc}
	if primaryFor(t, spec, good.URL, slow.URL) != slow.URL {
		for i := 0; i < 1000; i++ {
			spec.Params = []uint32{uint32(i)}
			if primaryFor(t, spec, good.URL, slow.URL) == slow.URL {
				break
			}
		}
	}
	if primaryFor(t, spec, good.URL, slow.URL) != slow.URL {
		t.Fatal("could not steer a spec onto the slow worker")
	}

	reg := metrics.New()
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{good.URL, slow.URL},
		Metrics:       reg,
		HedgeAfter:    30 * time.Millisecond,
		ProbeInterval: time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		t.Fatalf("Wait with a stuck primary: %v", err)
	}
	if res.Stats == nil {
		t.Fatal("nil stats through the hedge")
	}
	if got := reg.Snapshot().Counters["cluster.hedges_fired_total"]; got != 1 {
		t.Errorf("hedges_fired_total = %d, want 1", got)
	}
}

// TestClusterColdStartServesFromStore: a brand-new coordinator process
// over yesterday's store directory — with zero workers configured —
// answers a previously-computed job from disk, byte-identical.
func TestClusterColdStartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	spec := &client.JobSpec{Source: tinySrc}

	w1, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	co1, c1 := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL},
		Store:         openStore(t, dir),
		ProbeInterval: time.Hour,
	})
	resp1, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res1, err := c1.Wait(ctx, resp1.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := co1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Second life: no workers at all — only the store survives.
	reg := metrics.New()
	_, c2 := newCoordinator(t, cluster.Options{
		Store:         openStore(t, dir),
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	resp2, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("cold Submit: %v", err)
	}
	if !resp2.Cached || resp2.Status != "done" || resp2.ID != resp1.ID {
		t.Fatalf("cold Submit = %+v, want cached done id %s", resp2, resp1.ID)
	}
	res2, err := c2.Result(ctx, resp2.ID)
	if err != nil {
		t.Fatalf("cold Result: %v", err)
	}
	got, _ := json.Marshal(res2.Stats)
	want, _ := json.Marshal(res1.Stats)
	if string(got) != string(want) {
		t.Errorf("cold-start stats differ:\nstore: %s\nfirst: %s", got, want)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.store_hits_total"] != 1 {
		t.Errorf("store_hits_total = %d, want 1", snap.Counters["cluster.store_hits_total"])
	}
	if snap.Counters["cluster.dispatches_total"] != 0 {
		t.Errorf("dispatches_total = %d on a workerless coordinator, want 0",
			snap.Counters["cluster.dispatches_total"])
	}

	// A job the store has never seen is unservable without workers. It
	// is a rejected submission, not an accepted one.
	if _, err := c2.Submit(ctx, &client.JobSpec{Benchmark: "MatrixMul"}); err == nil {
		t.Error("novel Submit on a workerless coordinator succeeded, want 503")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["cluster.jobs_submitted_total"]; got != 1 {
		t.Errorf("jobs_submitted_total = %d after one store hit and one refusal, want 1", got)
	}
	if got := snap.Counters["cluster.jobs_rejected_total"]; got != 1 {
		t.Errorf("jobs_rejected_total = %d after the refusal, want 1", got)
	}
}

// TestClusterEvictedJobAnswersFromStore: a coordinator's table keeps
// the 256 most recent finished jobs, as a worker's does, and a success
// it has evicted still answers its status and result from the store.
func TestClusterEvictedJobAnswersFromStore(t *testing.T) {
	const jobs = 257
	w, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})
	reg := metrics.New()
	_, c := newCoordinator(t, cluster.Options{
		Workers:       []string{w.URL},
		Store:         openStore(t, t.TempDir()),
		Metrics:       reg,
		ProbeInterval: time.Hour,
	})
	ctx := context.Background()
	var firstID string
	var first *client.ResultResponse
	for i := 0; i < jobs; i++ {
		src := fmt.Sprintf(".kernel tiny\n\tmov r0, %%tid.x\n\tiadd r1, r0, %d\n\texit\n", i)
		resp, err := c.Submit(ctx, &client.JobSpec{Source: src})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		res, err := c.Wait(ctx, resp.ID)
		if err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
		if i == 0 {
			firstID, first = resp.ID, res
		}
	}
	if got := reg.Snapshot().Gauges["cluster.cache_entries"].Value; got != 256 {
		t.Errorf("cluster.cache_entries = %d after %d jobs, want 256", got, jobs)
	}
	want, _ := json.Marshal(first.Stats)
	st, err := c.Status(ctx, firstID)
	if err != nil {
		t.Fatalf("Status of the evicted job: %v", err)
	}
	if st.Status != "done" || st.Result == nil {
		t.Fatalf("Status of the evicted job = %+v, want done with its result", st)
	}
	if got, _ := json.Marshal(st.Result.Stats); string(got) != string(want) {
		t.Errorf("evicted job's status result differs:\n got %s\nwant %s", got, want)
	}
	res, err := c.Result(ctx, firstID)
	if err != nil {
		t.Fatalf("Result of the evicted job: %v", err)
	}
	if got, _ := json.Marshal(res.Stats); string(got) != string(want) {
		t.Errorf("evicted job's result differs:\n got %s\nwant %s", got, want)
	}
}

// TestClusterProbeEjectionAndReadmission: the Ready prober takes a
// worker that stops answering off the ring and puts it back when it
// recovers, with the topology endpoint tracking both transitions.
func TestClusterProbeEjectionAndReadmission(t *testing.T) {
	var sick atomic.Bool
	w1srv := service.New(service.Options{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { _ = w1srv.Drain(context.Background()) })
	inner := w1srv.Handler()
	w1 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() && r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"status": "draining"})
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(w1.Close)
	w2, _ := newWorker(t, service.Options{Workers: 1, QueueDepth: 4})

	reg := metrics.New()
	co, _ := newCoordinator(t, cluster.Options{
		Workers:       []string{w1.URL, w2.URL},
		Metrics:       reg,
		ProbeInterval: 10 * time.Millisecond,
	})

	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	sick.Store(true)
	waitFor("ejection", func() bool { return !co.Healthy(w1.URL) })
	topo := co.Topology()
	if topo.RingNodes != 1 {
		t.Errorf("ring_nodes = %d after ejection, want 1", topo.RingNodes)
	}

	sick.Store(false)
	waitFor("readmission", func() bool { return co.Healthy(w1.URL) })
	if topo := co.Topology(); topo.RingNodes != 2 {
		t.Errorf("ring_nodes = %d after readmission, want 2", topo.RingNodes)
	}
	snap := reg.Snapshot()
	if snap.Counters["cluster.worker_ejections_total"] < 1 {
		t.Error("no ejection counted")
	}
	if snap.Counters["cluster.worker_readmissions_total"] < 1 {
		t.Error("no readmission counted")
	}
	if snap.Gauges["cluster.ring_nodes"].Value != 2 {
		t.Errorf("ring_nodes gauge = %d, want 2", snap.Gauges["cluster.ring_nodes"].Value)
	}
}
