package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"warped/internal/metrics"
)

// TestPoolSubmitAfterDrain is the shutdown-race regression test: once
// Drain has begun, Submit must return the typed ErrPoolDraining
// immediately — never deadlock, never send on the closed queue.
func TestPoolSubmitAfterDrain(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 2, QueueDepth: 4})
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- p.Submit(func() error { return nil }, nil)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoolDraining) {
			t.Fatalf("Submit after Drain = %v, want ErrPoolDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit after Drain deadlocked")
	}
}

// TestPoolSubmitDrainRace hammers Submit concurrently with Drain: every
// submission must either run to completion (callback fires) or fail
// with the typed error — and the sum must account for all of them.
func TestPoolSubmitDrainRace(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 4, QueueDepth: 128})
	var executed, rejected atomic.Int64
	var wg sync.WaitGroup
	const n = 200
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Submit(func() error { return nil },
				func(error) { executed.Add(1) })
			if err != nil {
				if !errors.Is(err, ErrPoolDraining) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("Submit = %v, want a typed admission error", err)
				}
				rejected.Add(1)
			}
		}()
		if i == n/2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = p.Drain(context.Background())
			}()
		}
	}
	wg.Wait()
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("final Drain: %v", err)
	}
	if got := executed.Load() + rejected.Load(); got != n {
		t.Fatalf("executed %d + rejected %d = %d, want %d",
			executed.Load(), rejected.Load(), got, n)
	}
}

// TestPoolDrainFinishesBacklog: Drain must run every already-accepted
// task (queued included), not just the in-flight ones.
func TestPoolDrainFinishesBacklog(t *testing.T) {
	reg := metrics.New()
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 16, Metrics: reg})
	gate := make(chan struct{})
	var ran atomic.Int64
	// First task blocks the single worker so the rest queue up.
	if err := p.Submit(func() error { <-gate; ran.Add(1); return nil }, nil); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := p.Submit(func() error { ran.Add(1); return nil }, nil); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := ran.Load(); got != 9 {
		t.Fatalf("ran %d tasks, want 9 (drain dropped queued work)", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["runner.tasks_completed_total"]; got != 9 {
		t.Fatalf("tasks_completed_total = %d, want 9", got)
	}
	if got := snap.Gauges["runner.queue_depth"].Value; got != 0 {
		t.Fatalf("queue_depth = %d after drain, want 0", got)
	}
}

// TestPoolQueueFull: a saturated pool rejects with ErrQueueFull rather
// than blocking the submitter.
func TestPoolQueueFull(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	gate := make(chan struct{})
	defer close(gate)
	block := func() error { <-gate; return nil }
	// Worker may not have picked up the first task yet, so saturation is
	// worker-busy + full queue = at most 2 accepted; the 3rd must fail.
	var err error
	for i := 0; i < 3; i++ {
		if err = p.Submit(block, nil); err != nil {
			break
		}
		if i == 0 {
			// Give the worker a moment to pick up the blocker so the
			// queue bound, not scheduling luck, decides what follows.
			deadline := time.Now().Add(2 * time.Second)
			for p.met.WorkersBusy.Value() == 0 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated Submit = %v, want ErrQueueFull", err)
	}
}

// TestPoolPanicIsolation: a panicking task becomes a *PanicError on the
// callback; the worker survives and runs subsequent tasks.
func TestPoolPanicIsolation(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 4})
	errc := make(chan error, 1)
	if err := p.Submit(func() error { panic("boom") }, func(err error) { errc <- err }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	var pe *PanicError
	if err := <-errc; !errors.As(err, &pe) {
		t.Fatalf("panicking task delivered %v, want *PanicError", err)
	} else if pe.Value != "boom" {
		t.Fatalf("PanicError.Value = %v, want boom", pe.Value)
	}
	ok := make(chan error, 1)
	if err := p.Submit(func() error { return nil }, func(err error) { ok <- err }); err != nil {
		t.Fatalf("Submit after panic: %v", err)
	}
	if err := <-ok; err != nil {
		t.Fatalf("task after panic: %v", err)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestPoolDrainInterrupted: a Drain whose context fires early reports
// it but leaves the pool finishing in the background; a later Drain
// with a live context still observes full settlement.
func TestPoolDrainInterrupted(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 4})
	gate := make(chan struct{})
	fin := make(chan error, 1)
	if err := p.Submit(func() error { <-gate; return nil }, func(err error) { fin <- err }); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Drain(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Drain = %v, want context.Canceled", err)
	}
	close(gate)
	if err := <-fin; err != nil {
		t.Fatalf("in-flight task after interrupted drain: %v", err)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestPoolRejectsNilTask guards the trivial misuse.
func TestPoolRejectsNilTask(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1})
	if err := p.Submit(nil, nil); err == nil {
		t.Fatal("Submit(nil) accepted")
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestTaskAccounting sends a success, a panic and an error through Map
// and through Pool. Both paths must count them alike in the runner.*
// instruments and answer the panic as a *PanicError carrying the
// task's 0-based submission index.
func TestTaskAccounting(t *testing.T) {
	boom := errors.New("boom")
	tasks := []func() error{
		func() error { return nil },
		func() error { panic("kaboom") },
		func() error { return boom },
	}
	paths := []struct {
		name string
		// run sends every task through the path and returns the error
		// the panicking task was answered with.
		run      func(t *testing.T, reg *metrics.Registry) error
		panicIdx int
	}{
		{"Map", func(t *testing.T, reg *metrics.Registry) error {
			// Every task waits until all have started, so the first
			// failure cannot cancel a task before it runs.
			var started sync.WaitGroup
			started.Add(len(tasks))
			_, err := Map(context.Background(), Options{Workers: len(tasks), Metrics: reg}, len(tasks),
				func(_ context.Context, i int) (struct{}, error) {
					started.Done()
					started.Wait()
					return struct{}{}, tasks[i]()
				})
			return err // the lowest-index failure: the panic
		}, 1},
		{"Pool", func(t *testing.T, reg *metrics.Registry) error {
			p := NewPool(PoolOptions{Workers: 1, Metrics: reg})
			errs := make([]error, len(tasks))
			for i, task := range tasks {
				if err := p.Submit(task, func(err error) { errs[i] = err }); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if errs[0] != nil || !errors.Is(errs[2], boom) {
				t.Errorf("success answered %v and error answered %v, want nil and %v", errs[0], errs[2], boom)
			}
			return errs[1]
		}, 1},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			reg := metrics.New()
			err := path.run(t, reg)
			var pe *PanicError
			if !errors.As(err, &pe) || pe.Index != path.panicIdx || pe.Value != "kaboom" {
				t.Errorf("panic answered %v, want a *PanicError for task %d", err, path.panicIdx)
			}
			snap := reg.Snapshot()
			for name, want := range map[string]int64{
				"runner.tasks_started_total":   3,
				"runner.tasks_completed_total": 1,
				"runner.tasks_failed_total":    2,
				"runner.task_panics_total":     1,
			} {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if g := snap.Gauges["runner.workers_busy"]; g.Value != 0 || g.High < 1 {
				t.Errorf("runner.workers_busy = %+v, want back at 0 after rising", g)
			}
			if h := snap.Histograms["runner.task_latency_ms"]; h.Count != 3 {
				t.Errorf("runner.task_latency_ms observed %d tasks, want 3", h.Count)
			}
		})
	}
}

// TestPoolIndexCountsAcceptedTasks: a Pool numbers the tasks it accepts
// from 0, as Map numbers its tasks; a submission refused with
// ErrQueueFull takes no index.
func TestPoolIndexCountsAcceptedTasks(t *testing.T) {
	p := NewPool(PoolOptions{Workers: 1, QueueDepth: 1})
	started, release, second := make(chan struct{}), make(chan struct{}), make(chan struct{})
	if err := p.Submit(func() error { close(started); <-release; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := p.Submit(func() error { close(second); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(func() error { return nil }, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third Submit = %v, want ErrQueueFull", err)
	}
	close(release)
	<-second // the queued task has left the queue: there is room again
	answered := make(chan error, 1)
	if err := p.Submit(func() error { panic("boom") }, func(err error) { answered <- err }); err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if err := <-answered; !errors.As(err, &pe) || pe.Index != 2 {
		t.Errorf("third accepted task answered %v, want a *PanicError with index 2", err)
	}
	if err := p.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
