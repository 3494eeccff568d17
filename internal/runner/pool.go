package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"warped/internal/metrics"
)

// Typed admission errors. Callers branch on these to turn pool state
// into protocol answers (HTTP 429 for a full queue, 503 while
// draining) instead of string-matching.
var (
	// ErrPoolDraining is returned by Submit once Drain (or Close) has
	// been called: the pool finishes in-flight work but accepts nothing
	// new.
	ErrPoolDraining = errors.New("runner: pool is draining")

	// ErrQueueFull is returned by Submit when the bounded backlog is at
	// capacity. The caller decides whether to shed load or retry later;
	// the pool never blocks a submitter.
	ErrQueueFull = errors.New("runner: pool queue is full")
)

// PoolOptions sizes a Pool.
type PoolOptions struct {
	// Workers is the number of concurrently-executing tasks; <= 0 means
	// runtime.GOMAXPROCS(0).
	Workers int

	// QueueDepth bounds the accepted-but-not-started backlog; <= 0
	// means 64. Submissions beyond Workers running + QueueDepth queued
	// fail fast with ErrQueueFull.
	QueueDepth int

	// Metrics, when non-nil, receives the same pool telemetry as Map
	// (runner.* task counters, workers-busy gauge, task latency) plus
	// the runner.queue_depth backlog gauge.
	Metrics *metrics.Registry
}

// poolTask pairs a unit of work with its completion callback.
type poolTask struct {
	seq  int
	fn   func() error
	done func(error)
}

// Pool is the long-lived sibling of Map: a fixed set of workers
// consuming a bounded queue of independently-submitted tasks, built
// for daemons where work arrives continuously rather than as one
// batch. It keeps Map's guarantees where they apply — panic isolation
// (a panicking task becomes a *PanicError handed to its callback, not
// a dead process) and a clean shutdown protocol (after Drain returns,
// no task is running and none will start).
//
// Lifecycle: NewPool starts the workers; Submit enqueues work until
// Drain is called; Drain stops admission immediately (Submit returns
// ErrPoolDraining), waits for the backlog and in-flight tasks to
// finish, and is idempotent.
type Pool struct {
	tasks chan poolTask
	met   *metrics.Run

	mu       sync.Mutex
	draining bool
	seq      int

	wg      sync.WaitGroup
	settled chan struct{} // closed once all workers have exited
	once    sync.Once
}

// NewPool starts a worker pool.
func NewPool(opt PoolOptions) *Pool {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	depth := opt.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	p := &Pool{
		tasks:   make(chan poolTask, depth),
		met:     metrics.ForRunner(opt.Metrics),
		settled: make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go func() {
		p.wg.Wait()
		close(p.settled)
	}()
	return p
}

// Submit enqueues fn for execution; done (which may be nil) is called
// exactly once from the worker goroutine with fn's error — a
// *PanicError if fn panicked. Submit never blocks: it fails fast with
// ErrQueueFull when the backlog is at capacity and ErrPoolDraining
// after Drain has begun. A nil fn is rejected.
func (p *Pool) Submit(fn func() error, done func(error)) error {
	if fn == nil {
		return errors.New("runner: Submit of a nil task")
	}
	// The lock covers the draining check AND the channel send: Drain
	// closes p.tasks under the same lock, so a submitter can never send
	// on a closed channel (the classic submit-vs-shutdown race).
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return ErrPoolDraining
	}
	p.seq++
	t := poolTask{seq: p.seq, fn: fn, done: done}
	select {
	case p.tasks <- t:
		p.met.QueueDepth.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// Drain stops admission immediately and waits for every queued and
// in-flight task to finish, or for ctx to fire. On ctx expiry the
// remaining tasks keep draining in the background (their callbacks
// still run); the caller has merely stopped waiting. Drain is
// idempotent and safe to call concurrently; every call observes the
// same terminal state.
func (p *Pool) Drain(ctx context.Context) error {
	p.once.Do(func() {
		p.mu.Lock()
		p.draining = true
		close(p.tasks) // workers exit after emptying the backlog
		p.mu.Unlock()
	})
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-p.settled:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("runner: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (p *Pool) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// worker consumes tasks until the queue is closed and drained.
func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.met.QueueDepth.Add(-1)
		err := runTask(p.met, t.seq, t.fn)
		if t.done != nil {
			t.done(err)
		}
	}
}
