package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"warped/client"
	"warped/internal/cluster"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/stats"
	"warped/internal/store"
)

// daemon is one in-process warpd (worker or coordinator) serving the
// same Handler() cmd/warpd mounts, on a loopback listener.
type daemon struct {
	url   string
	reg   *metrics.Registry
	srv   *http.Server
	done  chan error
	drain func(context.Context) error
}

func serve(h http.Handler, reg *metrics.Registry, drain func(context.Context) error) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), reg: reg, drain: drain, done: make(chan error, 1),
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, shuts its listener and waits for Serve.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drainErr := d.drain(ctx)
	shutErr := d.srv.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(drainErr, shutErr)
}

// openStore opens a fresh durable store reporting into reg.
func openStore(dir string, reg *metrics.Registry) (*store.Store, error) {
	return store.Open(store.Options{Dir: dir, Metrics: reg})
}

// warpdJobTimeout is cmd/warpd's default -job-timeout.
const warpdJobTimeout = 2 * time.Minute

// startWorker builds a worker as cmd/warpd does by default (slots =
// GOMAXPROCS, queue 64), with its own registry and store and the given
// LRU size and job timeout.
func startWorker(dir string, cacheEntries int, jobTimeout time.Duration, rec *recorder) (*daemon, error) {
	reg := metrics.New()
	st, err := openStore(dir, reg)
	if err != nil {
		return nil, err
	}
	s := service.New(service.Options{QueueDepth: 64, CacheEntries: cacheEntries,
		JobTimeout: jobTimeout, Store: st, Metrics: reg})
	return serve(rec.tracedHandler("service", s.Handler()), reg, s.Drain)
}

// startCoordinator builds a coordinator as cmd/warpd -coordinator does
// (durable store, registry, hedging off). Traced, its worker exchanges
// are recorded under the cluster.client layer.
func startCoordinator(dir string, workers []string, rec *recorder) (*daemon, error) {
	reg := metrics.New()
	st, err := openStore(dir, reg)
	if err != nil {
		return nil, err
	}
	var hc *http.Client
	if rec != nil {
		hc = &http.Client{Transport: &tracedTransport{rec: rec, layer: "cluster.client", base: http.DefaultTransport}}
	}
	co := cluster.New(cluster.Options{Workers: workers, Store: st, Metrics: reg, HTTPClient: hc})
	return serve(rec.tracedHandler("cluster", co.Handler()), reg, co.Drain)
}

// benchClients returns n typed clients of base polling every poll.
// Traced, their exchanges are recorded under the client layer.
func benchClients(base string, n int, poll time.Duration, rec *recorder) []*client.Client {
	var rt http.RoundTripper = http.DefaultTransport
	if rec != nil {
		rt = &tracedTransport{rec: rec, layer: "client", base: rt}
	}
	hc := &http.Client{Timeout: 30 * time.Second, Transport: rt}
	out := make([]*client.Client, n)
	for i := range out {
		out[i] = client.NewWithHTTPClient(base, hc)
		out[i].PollInterval = poll
	}
	return out
}

// waitReady polls a daemon's readiness probe.
func waitReady(base string) error {
	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		ok, err := c.Ready(ctx)
		if err == nil && ok {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("daemon %s not ready: %v", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stopAll stops daemons in order, joining their errors.
func stopAll(ds ...*daemon) error {
	var errs []error
	for _, d := range ds {
		if d != nil {
			errs = append(errs, d.stop())
		}
	}
	return errors.Join(errs...)
}

// answer is one closed-loop operation: a submitted job and its reply.
type answer struct {
	spec    *service.JobSpec
	id      string
	latency time.Duration
	res     *service.ResultResponse // nil once a workload has checked it
	instrs  int64                   // Stats.WarpInstrs of the answer
	err     error                   // refused, timed out, or failed on the daemon
}

// jobTimeout bounds one operation; a job past it counts as an error.
const jobTimeout = time.Minute

// closedLoop runs one goroutine per client until the deadline: each
// submits next(client), waits for the answer, and only then sends the
// next. keep, when non-nil, sees each answer on its client's goroutine
// and may trim it before it is stored. closedLoop returns every answer
// and the time the last one arrived.
func closedLoop(clients []*client.Client, rec *recorder, deadline time.Time, next func(ci int) *service.JobSpec,
	keep func(ci int, a *answer)) ([]answer, time.Time) {
	var (
		mu  sync.Mutex
		all []answer
		wg  sync.WaitGroup
	)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			var mine []answer
			for time.Now().Before(deadline) {
				a := doJob(c, rec, next(ci))
				if keep != nil {
					keep(ci, &a)
				}
				mine = append(mine, a)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	return all, time.Now()
}

// warmUp runs one job per client concurrently and returns the answers.
func warmUp(clients []*client.Client, rec *recorder, next func(ci int) *service.JobSpec) []answer {
	out := make([]answer, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client.Client) {
			defer wg.Done()
			out[ci] = doJob(c, rec, next(ci))
		}(ci, c)
	}
	wg.Wait()
	return out
}

// doJob is one client.Submit + client.Wait, timed from submit to result.
func doJob(c *client.Client, rec *recorder, spec *service.JobSpec) answer {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	root := rec.open("client", "job", "", 0)
	a := answer{spec: spec}
	start := time.Now()
	resp, err := c.Submit(withSpan(ctx, root.id(), ""), spec)
	if err == nil {
		a.id = resp.ID
		a.res, err = c.Wait(withSpan(ctx, root.id(), resp.ID), resp.ID)
	}
	a.latency = time.Since(start)
	a.err = err
	if a.res != nil && a.res.Stats != nil {
		a.instrs = a.res.Stats.WarpInstrs
	}
	if root != nil {
		root.s.job = a.id
		root.done()
	}
	return a
}

// startWindow collects set-up garbage, so a window times steady-state
// work rather than the collection of what set-up left behind.
func startWindow() { runtime.GC() }

// storeDir is a fresh store directory under the run's scratch space.
func storeDir(e *env, name string) string { return filepath.Join(e.workDir, name) }

// setupRepeats is how many times a run sets its servers up; set-up
// time is the median.
const setupRepeats = 3

// setupTime is process start-up plus the median of repeated builds.
type setupTime struct{ startup, build time.Duration }

func (s setupTime) total() time.Duration { return s.startup + s.build }

// repeatSetup builds a rig setupRepeats times, keeping the last one.
func repeatSetup[R any](e *env, build func(n int) (R, error), stop func(R) error) (setupTime, R, error) {
	st := setupTime{startup: time.Since(e.t0)}
	var times []float64
	var rig R
	for n := 0; n < setupRepeats; n++ {
		t := time.Now()
		r, err := build(n)
		if err != nil {
			return st, rig, err
		}
		times = append(times, float64(time.Since(t).Nanoseconds()))
		if n < setupRepeats-1 {
			if err := stop(r); err != nil {
				return st, rig, err
			}
		}
		rig = r
	}
	st.build = time.Duration(median(times))
	return st, rig, nil
}

// windowResult is one timed window of a service workload.
type windowResult struct {
	answers    []answer
	start, end time.Time
	before     []metrics.Snapshot // registries at window start (coordinator first)
	after      []metrics.Snapshot
	e2e        []metric

	// histsFromStart takes histogram means over the daemons' whole life
	// instead of the window: on warpd_hot every execution is set-up.
	histsFromStart bool
	steal, cpu     float64
}

// runWindow runs the closed loop for the window on clients, recording
// the daemons' registries and the host steal and process CPU time
// around it.
func runWindow(e *env, regs []*metrics.Registry, clients []*client.Client, rec *recorder,
	next func(ci int) *service.JobSpec, keep func(ci int, a *answer)) *windowResult {
	startWindow()
	res := &windowResult{before: snapshots(regs)}
	steal, cpu := hostStealSeconds(), processCPUSeconds()
	res.start = time.Now()
	res.answers, res.end = closedLoop(clients, rec, res.start.Add(e.window), next, keep)
	res.steal, res.cpu = hostStealSeconds()-steal, processCPUSeconds()-cpu
	res.after = snapshots(regs)
	return res
}

func snapshots(regs []*metrics.Registry) []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
	}
	return out
}

// outcome fills the end-to-end metrics of a window. Tail latency is
// the q-th percentile; failed operations count at the job timeout.
func (w *windowResult) outcome(setup time.Duration, q float64) *outcome {
	var lat []float64
	var wi int64
	var ok, failed int64
	for _, a := range w.answers {
		if a.err != nil && !isCrash(a.err) {
			failed++
			lat = append(lat, ms(jobTimeout))
			continue
		}
		ok++
		lat = append(lat, ms(a.latency))
		wi += a.instrs
	}
	window := w.end.Sub(w.start)
	attempted := int64(len(w.answers))
	w.e2e = []metric{
		{"setup_s", "s", setup.Seconds()},
		{"ns_per_warp_instr", "ns", float64(window.Nanoseconds()) / float64(max(wi, 1))},
		{"jobs_per_s", "1/s", float64(ok) / window.Seconds()},
		{"latency_p50_ms", "ms", percentile(lat, 0.50)},
		{"latency_tail_ms", "ms", percentile(lat, q)},
		{"peak_rss_mb", "MB", peakRSSMB()},
		{"success_ratio", "ratio", float64(ok) / float64(max(attempted, 1))},
	}
	return &outcome{attempted: attempted, failed: failed, notes: map[string]any{
		"window_steal_s":      w.steal,
		"window_cpu_s":        w.cpu,
		"tail":                fmt.Sprintf("p%g", 100*q),
		"tail_samples_beyond": tailBeyond(len(lat), q),
		"error_ratio":         float64(failed) / float64(max(attempted, 1)),
		"crashed_answers":     countCrashes(w.answers),
	}}
}

// isCrash reports a job the daemon ran to a simulated GPU crash: an
// answer, provided re-execution crashes the same way. A job cancelled at
// its deadline timed out instead, and counts as an error.
func isCrash(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusInternalServerError &&
		!strings.Contains(ae.Message, context.DeadlineExceeded.Error())
}

func countCrashes(as []answer) int {
	n := 0
	for _, a := range as {
		if a.err != nil && isCrash(a.err) {
			n++
		}
	}
	return n
}

// sameJSON compares two results byte for byte in their wire encoding.
func sameJSON(id string, got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("job %s answered %s, re-execution gives %s", id, g, w)
	}
	return nil
}

func answeredStats(as []answer) []*stats.Stats {
	var out []*stats.Stats
	for _, a := range as {
		if a.err == nil && a.res != nil && a.res.Stats != nil {
			out = append(out, a.res.Stats)
		}
	}
	return out
}

func specsOf(as []answer) []*service.JobSpec {
	out := make([]*service.JobSpec, 0, len(as))
	for _, a := range as {
		out = append(out, a.spec)
	}
	return out
}

// payloadsOf encodes answered results as the stores hold them.
func payloadsOf(as []answer) [][]byte {
	var out [][]byte
	for _, a := range as {
		if a.err != nil || a.res == nil {
			continue
		}
		data, err := json.Marshal(service.JobResult{Stats: a.res.Stats, Attempts: a.res.Attempts,
			Recovered: a.res.Recovered, Detections: a.res.Detections})
		if err == nil {
			out = append(out, data)
		}
		if len(out) == 64 {
			break
		}
	}
	return out
}
