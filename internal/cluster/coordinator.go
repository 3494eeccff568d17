package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"warped/client"
	"warped/internal/metrics"
	"warped/internal/service"
	"warped/internal/store"
)

// ErrNoWorkers refuses a job the store cannot answer while every
// configured worker is off the ring.
var ErrNoWorkers = errors.New("cluster: no healthy workers")

// retainedJobs bounds the coordinator's in-memory table of finished
// jobs. Evicted successes remain answerable through the Store.
const retainedJobs = 4096

// Options configures a Coordinator.
type Options struct {
	// Workers are the base URLs of the warpd workers to shard across
	// (e.g. "http://10.0.0.1:8080"). Trailing slashes are tolerated;
	// duplicates are collapsed. A coordinator with zero workers can
	// still answer previously-computed jobs from its Store.
	Workers []string

	// VNodes is the virtual-node count per worker on the hash ring
	// (default DefaultVNodes).
	VNodes int

	// Store is the coordinator's durable result tier. Entries use the
	// same content-addressed format as a worker's own store, so a
	// directory can move between the two roles. Nil disables
	// durability; results then live only in the bounded in-memory table.
	Store *store.Store

	// Metrics receives the cluster.* instrument set; nil disables.
	Metrics *metrics.Registry

	// HedgeAfter, when positive, launches a concurrent dispatch to the
	// next ring node if the primary has not answered within this
	// duration — the latency hedge. Zero disables it; error-triggered
	// re-dispatch (draining, dead, saturated workers) is always on.
	HedgeAfter time.Duration

	// ProbeInterval is the cadence of the worker Ready probes that
	// drive ring ejection and readmission (default 2s).
	ProbeInterval time.Duration

	// RequestTimeout bounds each individual HTTP exchange with a
	// worker (default 10s). It caps how long a hung worker can stall a
	// dispatch or a probe, without capping total job wall time.
	RequestTimeout time.Duration

	// HTTPClient, when non-nil, carries every worker exchange so the
	// whole pool shares one transport. Defaults to a fresh client.
	HTTPClient *http.Client
}

// Coordinator shards content-addressed jobs across a pool of warpd
// workers. It is the worker's own job table (service.Server: caching,
// coalescing, the durable store, drain and the /v1 job API, so
// warped/client works against it unchanged) over a ring executor that
// dispatches each job to its consistent-hash ring node through the
// same public protocol. Identical submissions coalesce cluster-wide
// onto one dispatch and share one durable store entry.
type Coordinator struct {
	*service.Server
	exec  *ringExecutor
	store *store.Store
}

// ringExecutor is the coordinator's service.Executor: placement on the
// hash ring, hedging, re-dispatch, and the worker health probes that
// eject and readmit ring nodes.
type ringExecutor struct {
	workers   []string // sorted, normalized
	workerIdx map[string]int
	clients   map[string]*client.Client
	ring      *Ring
	vnodes    int
	met       *metrics.Cluster

	hedgeAfter    time.Duration
	probeInterval time.Duration

	health sync.Mutex // serializes ring membership changes
	active sync.WaitGroup

	dispatchCtx    context.Context
	dispatchCancel context.CancelFunc
	probeCancel    context.CancelFunc
	probeDone      chan struct{}
}

// New builds a coordinator and starts its worker health prober. Stop
// it with Drain.
func New(opts Options) *Coordinator {
	seen := make(map[string]bool)
	var workers []string
	for _, w := range opts.Workers {
		w = strings.TrimRight(w, "/")
		if w == "" || seen[w] {
			continue
		}
		seen[w] = true
		workers = append(workers, w)
	}
	sort.Strings(workers)

	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = 10 * time.Second
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	probeInterval := opts.ProbeInterval
	if probeInterval <= 0 {
		probeInterval = 2 * time.Second
	}

	re := &ringExecutor{
		workers:       workers,
		workerIdx:     make(map[string]int, len(workers)),
		clients:       make(map[string]*client.Client, len(workers)),
		ring:          NewRing(opts.VNodes),
		vnodes:        opts.VNodes,
		met:           metrics.ForCluster(opts.Metrics, len(workers)),
		hedgeAfter:    opts.HedgeAfter,
		probeInterval: probeInterval,
		probeDone:     make(chan struct{}),
	}
	if re.vnodes <= 0 {
		re.vnodes = DefaultVNodes
	}
	for i, w := range workers {
		re.workerIdx[w] = i
		c := client.NewWithHTTPClient(w, hc)
		c.RequestTimeout = reqTimeout
		c.MaxRetries = 2
		c.Backoff = 50 * time.Millisecond
		c.PollInterval = 25 * time.Millisecond
		re.clients[w] = c
		// Workers start on the ring optimistically; the prober (and any
		// failed dispatch) ejects the ones that turn out to be down.
		re.ring.Add(w)
	}
	re.met.RingNodes.Set(int64(re.ring.Len()))

	re.dispatchCtx, re.dispatchCancel = context.WithCancel(context.Background())
	probeCtx, probeCancel := context.WithCancel(context.Background())
	re.probeCancel = probeCancel
	go re.probeLoop(probeCtx)
	return &Coordinator{
		Server: service.NewServer("cluster", re, retainedJobs, opts.Metrics, opts.Store),
		exec:   re,
		store:  opts.Store,
	}
}

// Healthy reports whether worker w is currently on the ring.
func (co *Coordinator) Healthy(w string) bool {
	return co.exec.ring.Has(strings.TrimRight(w, "/"))
}

// Admit starts j's dispatch unless no worker is on the ring.
func (re *ringExecutor) Admit(j *service.Job) error {
	if re.ring.Len() == 0 {
		return ErrNoWorkers
	}
	re.active.Add(1)
	go func() {
		defer re.active.Done()
		// Capture the spec once: attempts and hedges still in flight
		// after Finish hold this copy, never the finished entry.
		spec := j.Spec()
		j.Start()
		j.Finish(re.dispatch(j.Hash(), spec))
	}()
	return nil
}

// Ready reports ErrNoWorkers while the ring is empty: a store-only
// coordinator still answers cached jobs, but is not ready for new work.
func (re *ringExecutor) Ready() error {
	if re.ring.Len() == 0 {
		return ErrNoWorkers
	}
	return nil
}

// Stop halts the prober and waits for every dispatch to settle or ctx
// to fire, whichever comes first; then it cancels what is left.
func (re *ringExecutor) Stop(ctx context.Context) error {
	re.probeCancel()
	<-re.probeDone
	defer re.dispatchCancel()
	settled := make(chan struct{})
	go func() {
		re.active.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: drain interrupted: %w", ctx.Err())
	}
}

// attemptOutcome is one worker's answer to a dispatched job.
type attemptOutcome struct {
	worker    string
	res       *service.JobResult
	err       error
	retriable bool // worth re-dispatching to the next ring node
	transport bool // the worker did not answer at all: eject it
}

// dispatch drives one job to completion: submit to the job's ring
// node, walk the successor list on retriable failures, and (when
// configured) hedge with a concurrent dispatch if the primary is slow.
// First success wins; a non-retriable failure (spec rejection,
// worker-reported job failure) settles the job immediately.
func (re *ringExecutor) dispatch(hash string, spec *service.JobSpec) (*service.JobResult, error) {
	ctx := re.dispatchCtx
	candidates := re.ring.Successors(hash, 0) // every healthy worker, ring order
	outcomes := make(chan attemptOutcome, len(candidates))
	inflight, next := 0, 0
	launch := func() bool {
		if next >= len(candidates) {
			return false
		}
		w := candidates[next]
		next++
		inflight++
		re.met.Dispatches.Inc()
		if i, ok := re.workerIdx[w]; ok {
			re.met.WorkerDispatches[i].Inc()
		}
		go func() { outcomes <- re.attempt(ctx, w, spec) }()
		return true
	}
	if !launch() {
		return nil, ErrNoWorkers
	}

	var hedge <-chan time.Time
	if re.hedgeAfter > 0 {
		t := time.NewTimer(re.hedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return nil, errors.New("cluster: coordinator shut down mid-dispatch")
		case <-hedge:
			hedge = nil
			if launch() {
				re.met.HedgesFired.Inc()
			}
		case o := <-outcomes:
			inflight--
			if o.err == nil {
				return o.res, nil
			}
			if o.transport {
				re.setHealth(o.worker, false)
			}
			if !o.retriable {
				return nil, o.err
			}
			if launch() {
				re.met.Redispatches.Inc()
			} else if inflight == 0 {
				return nil, fmt.Errorf("cluster: all %d candidate workers failed, last: %v",
					len(candidates), o.err)
			}
		}
	}
}

// attempt runs spec to completion on one worker.
func (re *ringExecutor) attempt(ctx context.Context, worker string, spec *service.JobSpec) attemptOutcome {
	c := re.clients[worker]
	resp, err := c.Submit(ctx, spec)
	if err != nil {
		return classify(worker, err)
	}
	res, err := c.Wait(ctx, resp.ID)
	if err != nil {
		return classify(worker, err)
	}
	return attemptOutcome{worker: worker, res: &res.JobResult}
}

// classify sorts a worker error into the hedging policy's buckets:
//
//   - draining (503), saturated past the retry budget (429), or a
//     worker that lost the job (404, e.g. it restarted): retriable on
//     the next ring node;
//   - no HTTP answer at all: retriable, and the worker is ejected;
//   - anything else the worker said (spec rejection, job failure):
//     deterministic — every replica would answer the same, fail fast.
func classify(worker string, err error) attemptOutcome {
	out := attemptOutcome{worker: worker, err: err}
	if errors.Is(err, client.ErrDraining) {
		out.retriable = true
		return out
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusTooManyRequests, http.StatusNotFound:
			out.retriable = true
		}
		return out
	}
	out.retriable = true
	out.transport = true
	return out
}

// probeLoop polls every worker's readiness on a fixed cadence, driving
// ring ejection and readmission.
func (re *ringExecutor) probeLoop(ctx context.Context) {
	defer close(re.probeDone)
	t := time.NewTicker(re.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			re.probeAll(ctx)
		}
	}
}

// probeAll runs one probe round. Workers are probed concurrently so a
// hung worker costs one RequestTimeout, not one per worker.
func (re *ringExecutor) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range re.workers {
		wg.Add(1)
		go func(w string) {
			defer wg.Done()
			ok, err := re.clients[w].Ready(ctx)
			re.setHealth(w, ok && err == nil)
		}(w)
	}
	wg.Wait()
}

// setHealth moves a worker on or off the ring, counting the
// transition. Safe for concurrent use.
func (re *ringExecutor) setHealth(worker string, healthy bool) {
	re.health.Lock()
	defer re.health.Unlock()
	if _, known := re.workerIdx[worker]; !known || re.ring.Has(worker) == healthy {
		return
	}
	if healthy {
		re.ring.Add(worker)
		re.met.Readmissions.Inc()
	} else {
		re.ring.Remove(worker)
		re.met.Ejections.Inc()
	}
	re.met.RingNodes.Set(int64(re.ring.Len()))
}

// TopologyResponse answers GET /v1/cluster.
type TopologyResponse struct {
	Workers   []WorkerInfo `json:"workers"`
	RingNodes int          `json:"ring_nodes"`
	VNodes    int          `json:"vnodes"`
	InFlight  int          `json:"in_flight"`
	Completed int          `json:"completed"`
	Draining  bool         `json:"draining"`
	Store     *StoreInfo   `json:"store,omitempty"`
}

// WorkerInfo is one worker's place in the topology.
type WorkerInfo struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// StoreInfo summarizes the durable result store.
type StoreInfo struct {
	Dir     string `json:"dir"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Topology snapshots the cluster for GET /v1/cluster.
func (co *Coordinator) Topology() *TopologyResponse {
	resp := &TopologyResponse{
		RingNodes: co.exec.ring.Len(),
		VNodes:    co.exec.vnodes,
		Draining:  co.Draining(),
	}
	resp.InFlight, resp.Completed = co.Occupancy()
	for _, w := range co.exec.workers {
		resp.Workers = append(resp.Workers, WorkerInfo{URL: w, Healthy: co.exec.ring.Has(w)})
	}
	if co.store != nil {
		resp.Store = &StoreInfo{Dir: co.store.Dir(), Entries: co.store.Len(), Bytes: co.store.Bytes()}
	}
	return resp
}

// Handler mounts the job table's HTTP surface (the /v1 job API a
// single daemon serves, health probes, /debug) plus the /v1/cluster
// topology endpoint. See docs/CLUSTER.md.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", co.Server.Handler())
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		service.WriteJSON(w, http.StatusOK, co.Topology())
	})
	return mux
}
