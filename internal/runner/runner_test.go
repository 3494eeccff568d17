package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering: results come back indexed by submission order no
// matter how workers interleave.
func TestMapOrdering(t *testing.T) {
	n := 100
	res, err := Map(context.Background(), Options{Workers: 8}, n, func(_ context.Context, i int) (int, error) {
		if i%7 == 0 {
			runtime.Gosched() // shake up completion order
		}
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestMapPanicIsolation: a panicking task becomes a PanicError result,
// the process survives, and the error names the task.
func TestMapPanicIsolation(t *testing.T) {
	_, err := Map(context.Background(), Options{Workers: 4}, 8, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error from the panicking task")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not wrap a PanicError", err)
	}
	if pe.Index != 3 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("bad PanicError: %+v", pe)
	}
}

// TestMapFirstErrorByIndex: with several failures, the reported error
// is the lowest-index one regardless of completion order. Task 7 fails
// first, while task 2 is still running.
func TestMapFirstErrorByIndex(t *testing.T) {
	wantErr := errors.New("task failed")
	started, failed := make(chan struct{}), make(chan struct{})
	_, err := Map(context.Background(), Options{Workers: 4}, 10,
		func(_ context.Context, i int) (int, error) {
			switch i {
			case 2:
				close(started)
				<-failed
			case 7:
				<-started
				close(failed)
			default:
				return i, nil
			}
			return 0, fmt.Errorf("%w: %d", wantErr, i)
		})
	if err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want wrap of %v", err, wantErr)
	}
	if got := err.Error(); got != "runner: task 2: task failed: 2" {
		t.Fatalf("error not deterministic by index: %q", got)
	}
}

// TestMapCancellation: cancelling the context stops the pool promptly,
// returns a ctx.Err()-wrapped error, and leaks no goroutines.
func TestMapCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = Map(ctx, Options{Workers: 4}, 1000, func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(50 * time.Millisecond):
				return i, nil
			}
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Map did not return promptly after cancel")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := started.Load(); s >= 1000 {
		t.Fatalf("all %d tasks ran despite cancellation", s)
	}
	// The pool must wind down fully: poll briefly for the goroutine
	// count to return to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestMapStopsAfterFailure: the first failure cancels the rest of the
// grid.
func TestMapStopsAfterFailure(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(context.Background(), Options{Workers: 1}, 100, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if r := ran.Load(); r >= 100 {
		t.Fatalf("grid kept running after the failure (%d tasks ran)", r)
	}
}

// TestMapProgress: the callback sees every completion, serialized, with
// done strictly increasing up to total.
func TestMapProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	n := 32
	_, err := Map(context.Background(), Options{
		Workers: 4,
		OnProgress: func(done, total int) {
			if total != n {
				t.Errorf("total = %d, want %d", total, n)
			}
			mu.Lock()
			seen = append(seen, done)
			mu.Unlock()
		},
	}, n, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("progress called %d times, want %d", len(seen), n)
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress not strictly increasing: %v", seen)
		}
	}
}

// TestMapZeroTasks: an empty grid completes immediately.
func TestMapZeroTasks(t *testing.T) {
	res, err := Map(context.Background(), Options{}, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("task ran for n=0")
		return 0, nil
	})
	if err != nil || res != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", res, err)
	}
}
