package experiments

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"warped/internal/metrics"
)

// TestParallelMatchesSerial is the determinism contract of the
// orchestration engine: the rendered tables of a parallel run must be
// byte-identical to the serial run, for a pure figure harness (Fig. 1)
// and for a seeded fault-injection campaign.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serial := &Engine{Workers: 1}
	parallel := &Engine{Workers: 8}
	ctx := context.Background()

	sFig, err := serial.Fig1(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pFig, err := parallel.Fig1(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := sFig.Table().String(), pFig.Table().String(); s != p {
		t.Errorf("Fig1 tables diverge between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}

	sCamp, err := serial.Campaign(ctx, "MatrixMul", 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	pCamp, err := parallel.Campaign(ctx, "MatrixMul", 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := CampaignTable([]*CampaignResult{sCamp}).String()
	p := CampaignTable([]*CampaignResult{pCamp}).String()
	if s != p {
		t.Errorf("campaign tables diverge between serial and parallel runs:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestEngineProgress: the progress callback counts every run of the
// grid exactly once.
func TestEngineProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var mu sync.Mutex
	var calls, lastTotal int
	e := &Engine{Workers: 4, Progress: func(done, total int) {
		mu.Lock()
		calls++
		lastTotal = total
		mu.Unlock()
	}}
	if _, err := e.Fig1(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls != 11 || lastTotal != 11 {
		t.Errorf("progress saw %d/%d completions, want 11/11", calls, lastTotal)
	}
}

// TestEngineMetricsEveryHarness pins the Engine.Metrics promise: an
// attached registry receives the simulator counters of every run,
// whichever harness makes it.
func TestEngineMetricsEveryHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tc := range []struct {
		name string
		run  func(context.Context, *Engine) error
	}{
		{"Fig8b", func(ctx context.Context, e *Engine) error { _, err := e.Fig8b(ctx); return err }},
		{"DetectionLatency", func(ctx context.Context, e *Engine) error {
			_, err := e.DetectionLatency(ctx, "MatrixMul", 2, 21)
			return err
		}},
		{"Fig10", func(ctx context.Context, e *Engine) error { _, err := e.Fig10(ctx); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			if err := tc.run(context.Background(), &Engine{Metrics: reg}); err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("sim.warp_instrs_total").Value(); n <= 0 {
				t.Errorf("sim.warp_instrs_total = %d, want > 0", n)
			}
		})
	}
}

// TestCampaignCancellation is the acceptance criterion for prompt
// shutdown: cancelling mid-campaign returns well before the campaign
// could finish, with a ctx.Err()-wrapped error and no leaked
// goroutines.
func TestCampaignCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{Workers: 4}
	errc := make(chan error, 1)
	go func() {
		// 200 MatrixMul runs would take minutes; cancellation must cut
		// this to well under one kernel's full runtime.
		_, err := e.Campaign(ctx, "MatrixMul", 200, 7)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not return within 10s of cancellation")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v to propagate", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
