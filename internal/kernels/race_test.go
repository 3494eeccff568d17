package kernels

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"warped/internal/arch"
	"warped/internal/sim"
	"warped/internal/stats"
)

// TestConcurrentLaunches pins the property the parallel orchestration
// engine depends on: separate GPU instances can run concurrently
// because sim, kernels, and stats share no mutable state. What runs do
// share, each bundled kernel's program (assembled once per process),
// they only read. Run under `go test -race` — CI does — any write to
// shared state fails the build.
func TestConcurrentLaunches(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const workers = 4
	benches := []string{"MatrixMul", "BFS", "SHA", "SCAN"}

	// Serial reference results for the same benchmarks.
	want := make([]*stats.Stats, len(benches))
	for i, name := range benches {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := Attempt(context.Background(), arch.WarpedDMRConfig(), b, sim.LaunchOpts{}, true)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st
	}

	// The same runs, all launched concurrently, several times over so
	// every pair of benchmarks overlaps at least once, every launch of
	// a benchmark reading the same shared program.
	var wg sync.WaitGroup
	got := make([][]*stats.Stats, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		got[w] = make([]*stats.Stats, len(benches))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, name := range benches {
				b, err := ByName(name)
				if err != nil {
					errs[w] = err
					return
				}
				st, _, err := Attempt(context.Background(), arch.WarpedDMRConfig(), b, sim.LaunchOpts{}, true)
				if err != nil {
					errs[w] = err
					return
				}
				got[w][i] = st
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := range got {
		for i, name := range benches {
			if !reflect.DeepEqual(got[w][i], want[i]) {
				t.Errorf("worker %d: %s stats diverged from the serial run", w, name)
			}
		}
	}
}

// TestConcurrentLintAll: the lazily assembled sources must be safe to
// trigger from multiple goroutines (parallel experiment CLIs lint up
// front on each worker's first use).
func TestConcurrentLintAll(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = LintAll()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
}
