package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/store"
)

// Typed admission errors, so callers (and the HTTP layer) branch on one
// vocabulary.
var (
	// ErrDraining is returned by Submit once Drain has begun: the
	// table finishes accepted work but admits nothing new (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")

	// ErrBusy is returned by Submit when the executor is momentarily
	// full, e.g. the bounded job queue is at capacity (HTTP 429 +
	// Retry-After).
	ErrBusy = runner.ErrQueueFull
)

// refused marks a submission the table or its executor cannot take
// now (HTTP 503): draining, or nowhere to run it.
type refused struct{ error }

func (r refused) Unwrap() error { return r.error }

// jobState is the lifecycle of one job in the table.
type jobState int

const (
	stateQueued jobState = iota
	stateRunning
	stateDone
	stateFailed
)

func (st jobState) String() string {
	switch st {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	default:
		return fmt.Sprintf("jobState(%d)", int(st))
	}
}

// Executor runs the jobs a Server admits. The Server owns identity,
// caching, coalescing and the lifecycle; an executor only takes a job
// or refuses it, and then runs it.
type Executor interface {
	// Admit takes j or refuses it, without blocking: ErrBusy means
	// retry soon (HTTP 429), any other error that the executor cannot
	// take work now (HTTP 503). It runs under the Server's lock, so an
	// admitted job is marked running with j.Start and finished exactly
	// once with j.Finish from another goroutine. The Server never
	// calls Admit after Stop.
	Admit(j *Job) error

	// Ready returns why the executor cannot take fresh work, or nil.
	Ready() error

	// Stop waits until every admitted job has finished or ctx is done.
	Stop(ctx context.Context) error
}

// Job is one entry of the table: the work while it is queued or
// running, then only its answer. The entry exists from admission on,
// which is what makes the map double as the coalescing mechanism: a
// duplicate submission finds the in-flight entry and attaches instead
// of executing again.
type Job struct {
	s     *Server
	id    string
	hash  string        // full content hash, the durable-store key
	spec  *JobSpec      // as submitted; nil once finished
	canon *canonicalJob // nil once finished

	state    jobState
	result   *JobResult
	errMsg   string
	done     chan struct{} // closed when the job reaches done/failed
	elem     *list.Element // LRU position; nil until finished
	enqueued time.Time
}

// Hash is the job's full content hash.
func (j *Job) Hash() string { return j.hash }

// Spec is the job as submitted; valid until Finish.
func (j *Job) Spec() *JobSpec { return j.spec }

// Start marks the job running.
func (j *Job) Start() {
	j.s.mu.Lock()
	j.state = stateRunning
	j.s.mu.Unlock()
}

// Finish records the job's outcome, res on success and err on failure:
// it persists a success to the durable store, keeps only the answer in
// the entry, moves it into the LRU, enforces the cache bound and wakes
// every waiter. Call it exactly once.
func (j *Job) Finish(res *JobResult, err error) {
	s := j.s
	if err == nil {
		// Off the lock, and before any reader can see done: a finished
		// job is durable.
		s.storePut(j.hash, res)
	}
	s.mu.Lock()
	if err != nil {
		j.state, j.errMsg = stateFailed, err.Error()
		s.met.JobsFailed.Inc()
	} else {
		j.state, j.result = stateDone, res
	}
	j.spec, j.canon = nil, nil
	s.met.JobsExecuted.Inc()
	s.met.JobLatencyMS.Observe(time.Since(j.enqueued).Milliseconds())
	j.elem = s.lru.PushFront(j)
	s.evictLocked()
	s.mu.Unlock()
	close(j.done)
}

// Options sizes a Server.
type Options struct {
	// Workers is the simulation concurrency; <= 0 means GOMAXPROCS.
	Workers int

	// QueueDepth bounds accepted-but-not-started jobs; <= 0 means 64.
	// Beyond it, Submit sheds load with ErrBusy.
	QueueDepth int

	// CacheEntries bounds the completed results retained for cache
	// hits; <= 0 means 256. Least-recently-used entries are evicted
	// (and re-run on resubmission).
	CacheEntries int

	// JobTimeout bounds one job's wall-clock execution (all attempts);
	// 0 means no limit.
	JobTimeout time.Duration

	// Metrics, when non-nil, receives the service.* instrument set plus
	// the runner.* pool telemetry and the sim/DMR counters of every
	// executed job. It is also what GET /debug/metrics serves.
	Metrics *metrics.Registry

	// Store, when non-nil, is the durable content-addressed result tier
	// behind the in-memory LRU: completed results are persisted to it,
	// and a Submit that misses the LRU is answered from it without
	// re-simulating (docs/SERVICE.md). Content addressing makes entries
	// immutable, so a store directory is safe to keep across restarts
	// and to share between daemons that never run concurrently on it.
	Store *store.Store
}

// Server is the job table behind cmd/warpd, in both roles: a
// content-addressed map with a bounded LRU of results in front of an
// optional durable store, in-flight coalescing, admission onto an
// Executor, a graceful drain, and the HTTP surface over all of it. A
// worker executes on its own runner pool (New); a coordinator
// dispatches across workers (internal/cluster).
type Server struct {
	exec     Executor
	reg      *metrics.Registry
	met      *metrics.Jobs
	cacheCap int
	store    *store.Store // durable tier; nil when not configured

	mu       sync.Mutex
	jobs     map[string]*Job
	lru      *list.List // finished *Job entries, most recently used first
	draining bool
}

// New builds a worker: a Server executing on its own runner pool, each
// job under opt.JobTimeout.
func New(opt Options) *Server {
	exec := &poolExecutor{
		pool: runner.NewPool(runner.PoolOptions{
			Workers:    opt.Workers,
			QueueDepth: opt.QueueDepth,
			Metrics:    opt.Metrics,
		}),
		reg:     opt.Metrics,
		timeout: opt.JobTimeout,
	}
	return NewServer("service", exec, opt.CacheEntries, opt.Metrics, opt.Store)
}

// NewServer builds a job table over exec. Its instruments are named
// under role; it retains up to cacheEntries finished jobs (<= 0 means
// 256) in front of st, which may be nil.
func NewServer(role string, exec Executor, cacheEntries int, reg *metrics.Registry, st *store.Store) *Server {
	if cacheEntries <= 0 {
		cacheEntries = 256
	}
	return &Server{
		exec:     exec,
		reg:      reg,
		met:      metrics.ForJobs(reg, role),
		cacheCap: cacheEntries,
		store:    st,
		jobs:     make(map[string]*Job),
		lru:      list.New(),
	}
}

// SubmitResponse answers POST /v1/jobs.
type SubmitResponse struct {
	// ID is the job's content address; resubmitting the same work
	// always yields the same ID.
	ID string `json:"id"`

	// Status is the job's lifecycle state: queued, running, done or
	// failed.
	Status string `json:"status"`

	// Cached reports the submission was answered from a completed
	// result without simulating.
	Cached bool `json:"cached,omitempty"`

	// Coalesced reports the submission attached to an identical job
	// already queued or running.
	Coalesced bool `json:"coalesced,omitempty"`
}

// StatusResponse answers GET /v1/jobs/{id}.
type StatusResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"` // failed jobs only
}

// ResultResponse answers GET /v1/jobs/{id}/result for a done job.
type ResultResponse struct {
	ID string `json:"id"`
	JobResult
}

// Submit admits one job: a completed identical job (in memory or in
// the durable store) is a cache hit, an in-flight identical job
// coalesces, a fresh job is canonicalized and admitted to the
// executor. The error is ErrBusy, ErrDraining or the executor's
// refusal for admission refusals, anything else is a spec validation
// failure.
func (s *Server) Submit(spec *JobSpec) (*SubmitResponse, error) {
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, err
	}
	hash := canon.Hash()
	id := IDFromHash(hash)

	s.mu.Lock()
	resp := s.lookupLocked(id)
	s.mu.Unlock()
	if resp != nil {
		return resp, nil
	}

	// The table missed; the durable tier may still hold the result from
	// a prior process or an evicted entry. Disk reads must not serialize
	// submissions, so it is read off the lock and the table re-checked.
	res := s.storeGet(hash)

	s.mu.Lock()
	defer s.mu.Unlock()
	if resp := s.lookupLocked(id); resp != nil {
		return resp, nil
	}
	if res != nil {
		j := &Job{s: s, id: id, hash: hash, state: stateDone, result: res, done: make(chan struct{})}
		close(j.done)
		j.elem = s.lru.PushFront(j)
		s.jobs[id] = j
		s.evictLocked()
		s.met.JobsSubmitted.Inc()
		s.met.CacheHits.Inc()
		s.met.StoreHits.Inc()
		return &SubmitResponse{ID: id, Status: j.state.String(), Cached: true}, nil
	}
	if s.draining {
		s.met.JobsRejected.Inc()
		return nil, refused{ErrDraining}
	}
	j := &Job{s: s, id: id, hash: hash, spec: spec, canon: canon, state: stateQueued,
		done: make(chan struct{}), enqueued: time.Now()}
	if err := s.exec.Admit(j); err != nil {
		s.met.JobsRejected.Inc()
		if errors.Is(err, ErrBusy) {
			return nil, err
		}
		return nil, refused{err}
	}
	s.jobs[id] = j
	s.met.JobsSubmitted.Inc()
	s.met.CacheMisses.Inc()
	return &SubmitResponse{ID: id, Status: j.state.String()}, nil
}

// lookupLocked answers a submission from the table when it can: a done
// job is a cache hit and a queued or running one coalesces. A failed
// job is never served: its entry is dropped, so the submission
// executes it again and a transient failure (a timeout, a lost worker)
// heals by resubmission. Caller holds s.mu.
func (s *Server) lookupLocked(id string) *SubmitResponse {
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	switch j.state {
	case stateDone:
		s.lru.MoveToFront(j.elem)
		s.met.JobsSubmitted.Inc()
		s.met.CacheHits.Inc()
		return &SubmitResponse{ID: id, Status: j.state.String(), Cached: true}
	case stateQueued, stateRunning:
		s.met.JobsSubmitted.Inc()
		s.met.CacheCoalesced.Inc()
		return &SubmitResponse{ID: id, Status: j.state.String(), Coalesced: true}
	case stateFailed:
		s.removeLocked(j)
	}
	return nil
}

// Status reports a job's lifecycle state; false when the ID is neither
// in flight nor retained.
func (s *Server) Status(id string) (*StatusResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return &StatusResponse{ID: j.id, Status: j.state.String(), Error: j.errMsg}, true
}

// Result returns a done job's result. The boolean reports existence;
// a nil response with existence means the job is not done yet (still
// queued/running, or failed — check Status).
func (s *Server) Result(id string) (*ResultResponse, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	if j.state != stateDone {
		return nil, true
	}
	s.lru.MoveToFront(j.elem)
	return &ResultResponse{ID: j.id, JobResult: *j.result}, true
}

// Wait blocks until the job finishes (done or failed); false when the
// ID is unknown.
func (s *Server) Wait(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	<-j.done
	return true
}

// Occupancy counts the table's entries: jobs admitted and not yet
// finished, and finished jobs retained in memory.
func (s *Server) Occupancy() (active, retained int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs) - s.lru.Len(), s.lru.Len()
}

// Drain stops admission of fresh work immediately (Submit refuses it
// with ErrDraining, the readiness probe flips to 503; cache hits are
// still answered) and waits for every admitted job to finish, or for
// ctx to fire. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	return s.exec.Stop(ctx)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// evictLocked enforces the LRU cache bound. Caller holds s.mu.
func (s *Server) evictLocked() {
	for s.lru.Len() > s.cacheCap {
		oldest := s.lru.Back()
		s.removeLocked(oldest.Value.(*Job))
		s.met.CacheEvictions.Inc()
	}
	s.met.CacheEntries.Set(int64(s.lru.Len()))
}

// storeGet reads a verified result from the durable tier; nil on a
// miss, corruption, or when no store is configured.
func (s *Server) storeGet(hash string) *JobResult {
	if s.store == nil {
		return nil
	}
	payload, ok := s.store.Get(hash)
	if !ok {
		return nil
	}
	var res JobResult
	if err := json.Unmarshal(payload, &res); err != nil || res.Stats == nil {
		// A payload that verified but does not decode is a schema drift
		// artifact (e.g. a store dir from a different build); miss.
		return nil
	}
	return &res
}

// storePut persists a completed result to the durable tier; best
// effort — a full disk or unwritable directory degrades the daemon to
// in-memory caching, it does not fail the job.
func (s *Server) storePut(hash string, res *JobResult) {
	if s.store == nil || res == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	_ = s.store.Put(hash, payload)
}

// removeLocked drops a finished entry from the map and LRU ring.
// Caller holds s.mu.
func (s *Server) removeLocked(j *Job) {
	delete(s.jobs, j.id)
	if j.elem != nil {
		s.lru.Remove(j.elem)
		j.elem = nil
	}
	s.met.CacheEntries.Set(int64(s.lru.Len()))
}

// Handler mounts the HTTP surface: the /v1 job API, the health and
// readiness probes, and the /debug operational endpoints (pprof,
// expvar, metrics snapshot). See docs/SERVICE.md for the API
// reference.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/benchmarks", handleBenchmarks)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("/debug/", metrics.Handler(s.reg))
	return mux
}

// maxSpecBytes bounds a POSTed job spec (inline kernels included); a
// bigger body is a client error, not a reason to balloon the daemon.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("service: reading body: %v", err))
		return
	}
	if len(body) > maxSpecBytes {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("service: job spec exceeds %d bytes", maxSpecBytes))
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	resp, err := s.Submit(spec)
	var ref refused
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "service: job queue is full, retry later")
	case errors.As(err, &ref):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, ref.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	case resp.Cached:
		WriteJSON(w, http.StatusOK, resp)
	default:
		WriteJSON(w, http.StatusAccepted, resp)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, ok := s.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("service: unknown job %q", id))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, ok := s.Result(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("service: unknown job %q", id))
		return
	}
	if resp == nil {
		st, _ := s.Status(id)
		if st != nil && st.Status == stateFailed.String() {
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("service: job %s failed: %s", id, st.Error))
			return
		}
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Sprintf("service: job %s is not finished", id))
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	names := kernels.Names()
	for _, b := range kernels.Extras() {
		names = append(names, b.Name)
	}
	WriteJSON(w, http.StatusOK, map[string][]string{"benchmarks": names})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if err := s.exec.Ready(); err != nil {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": err.Error()})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// WriteJSON writes v as the JSON body of a code answer, the encoding
// every warpd endpoint uses.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorBody is the uniform error envelope of the API.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, errorBody{Error: msg})
}
