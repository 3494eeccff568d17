// Package runner is the parallel run-orchestration engine: a bounded
// worker pool that fans independent simulation runs out across
// goroutines while keeping every observable output deterministic.
//
// Each run of an experiment grid (benchmark × config × seed) owns an
// independent sim.GPU, so runs never share mutable state and the only
// ordering that matters is the one results are merged in. Map therefore
// guarantees:
//
//   - results are returned indexed by submission order, never by
//     completion order, so parallel output is byte-identical to serial;
//   - a panicking task becomes an error result carrying its stack, not
//     a dead process, so one bad run cannot take down a campaign;
//   - context cancellation propagates to every in-flight task (the
//     simulator checks it every few thousand simulated cycles) and Map
//     returns a ctx.Err()-wrapped error promptly;
//   - all worker goroutines have exited before Map returns — callers
//     never leak goroutines, even on cancellation or panic.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"warped/internal/metrics"
)

// Options tunes one Map invocation.
type Options struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0). The
	// pool never runs more workers than there are tasks.
	Workers int

	// OnProgress, when non-nil, is called after each task finishes with
	// the number of completed tasks and the total. Calls are serialized
	// and `done` is strictly increasing, but — inherent to parallel
	// completion — not necessarily in submission order of the tasks.
	OnProgress func(done, total int)

	// Metrics, when non-nil, receives pool telemetry: task lifecycle
	// counters, the workers-busy gauge (whose high-water mark is the peak
	// pool utilization), and a wall-clock task-latency histogram. Latency
	// values vary run to run — they are operational data, never part of
	// the deterministic simulation output.
	Metrics *metrics.Registry
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is the error result of a task that panicked.
type PanicError struct {
	Index int    // submission index of the panicking task
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

// Error renders the panic value; the stack is available separately.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %d panicked: %v", e.Index, e.Value)
}

// Map runs fn(ctx, i) for i in [0, n) on a bounded worker pool and
// returns the n results ordered by submission index.
//
// On failure Map returns the partial results alongside the error of the
// lowest-index genuinely-failed task (cancellation fallout of
// later-scheduled tasks does not mask the root cause). The first
// failure cancels the remaining tasks. If ctx is cancelled, Map
// returns an error satisfying errors.Is(err, ctx.Err()).
//
// fn must not retain or share mutable state across indices; each
// invocation may run on any worker goroutine.
func Map[T any](ctx context.Context, opt Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var mu sync.Mutex // serializes OnProgress
	completed := 0
	met := metrics.ForRunner(opt.Metrics)

	var wg sync.WaitGroup
	for w := opt.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					// Mark tasks we never started as cancelled and keep
					// draining indices so the pool winds down quickly.
					errs[i] = err
					continue
				}
				errs[i] = runTask(met, i, func() error {
					v, err := fn(ctx, i)
					if err != nil {
						return err
					}
					results[i] = v
					return nil
				})
				if errs[i] != nil {
					cancel()
				}
				if opt.OnProgress != nil {
					// Call under the lock: the contract promises
					// serialized calls with done strictly increasing.
					mu.Lock()
					completed++
					opt.OnProgress(completed, n)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	// Deterministic error selection: prefer the lowest-index error that
	// is not mere cancellation fallout; fall back to the lowest-index
	// cancellation (the caller-cancelled case).
	var firstCancel error
	firstCancelIdx := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel, firstCancelIdx = err, i
			}
			continue
		}
		return results, fmt.Errorf("runner: task %d: %w", i, err)
	}
	if firstCancel != nil {
		return results, fmt.Errorf("runner: task %d: %w", firstCancelIdx, firstCancel)
	}
	return results, nil
}

// runTask runs one task of Map or Pool with panic isolation and the
// bookkeeping both share: it counts the task started, holds the
// workers-busy gauge up while it runs, observes its latency, and
// counts it completed or failed (a panic also in TaskPanics). A panic
// becomes a *PanicError carrying index.
func runTask(met *metrics.Run, index int, fn func() error) (err error) {
	met.TasksStarted.Inc()
	met.WorkersBusy.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: index, Value: r, Stack: debug.Stack()}
		}
		met.TaskLatencyMS.Observe(time.Since(start).Milliseconds())
		met.WorkersBusy.Add(-1)
		if err == nil {
			met.TasksCompleted.Inc()
			return
		}
		met.TasksFailed.Inc()
		var pe *PanicError
		if errors.As(err, &pe) {
			met.TaskPanics.Inc()
		}
	}()
	return fn()
}
