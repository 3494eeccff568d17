package kernels

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"warped/internal/arch"
	"warped/internal/asm"
	"warped/internal/sim"
	"warped/internal/stats"
)

// twoLaunch is a two-step workload whose second step is broken by
// mutate, so Attempt's failure paths can be driven without faults.
func twoLaunch(t *testing.T, mutate func(run *Run)) *Benchmark {
	t.Helper()
	prog, err := asm.Assemble(".kernel tiny\n\tmov r0, %tid.x\n\tiadd r1, r0, 1\n\texit\n")
	if err != nil {
		t.Fatal(err)
	}
	return &Benchmark{Name: "Tiny", Build: func(*sim.GPU) (*Run, error) {
		k := func() *sim.Kernel { return &sim.Kernel{Prog: prog, GridX: 2, GridY: 1, BlockX: 32, BlockY: 1} }
		run := &Run{Steps: []Step{{Kernel: k()}, {Kernel: k()}}}
		mutate(run)
		return run, nil
	}}
}

// TestAttemptErrorsAndPartialStats pins the error text of each failure
// and that a failed launch or host step still returns the merged
// statistics of the launches that completed.
func TestAttemptErrorsAndPartialStats(t *testing.T) {
	ctx := context.Background()
	cfg := arch.PaperConfig()
	clean, _, err := Attempt(ctx, cfg, twoLaunch(t, func(*Run) {}), sim.LaunchOpts{}, true)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	cases := []struct {
		name       string
		mutate     func(*Run)
		want       string
		launchesOK int64 // completed launches whose stats come back
	}{
		{"launch", func(r *Run) { r.Steps[1].Kernel.GridX = 0 }, "Tiny: launch 1: sim: bad grid 0x1", 1},
		{"host step", func(r *Run) { r.Steps[1].Host = func(*sim.GPU) error { return boom } }, "Tiny: host step 1: boom", 2},
		{"validation", func(r *Run) { r.Check = func(*sim.GPU) error { return boom } }, "Tiny: validation: boom", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, _, err := Attempt(ctx, cfg, twoLaunch(t, tc.mutate), sim.LaunchOpts{}, true)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
			if st == nil || st.WarpInstrs != clean.WarpInstrs*tc.launchesOK/2 {
				t.Errorf("partial stats = %+v, want the %d completed launches", st, tc.launchesOK)
			}
		})
	}

	failBuild := &Benchmark{Name: "Tiny", Build: func(*sim.GPU) (*Run, error) { return nil, boom }}
	if st, _, err := Attempt(ctx, cfg, failBuild, sim.LaunchOpts{}, true); st != nil || err == nil || err.Error() != "Tiny: build: boom" {
		t.Errorf("build failure = %v, %v; want nil stats and %q", st, err, "Tiny: build: boom")
	}
}

// TestRetry pins the retry loop's decisions and error texts.
func TestRetry(t *testing.T) {
	ctx := context.Background()
	detected := &stats.Stats{FaultsDetected: 1}
	clean := &stats.Stats{}
	crash := errors.New("crash")
	seq := func(outs ...any) func() (*stats.Stats, error) {
		i := 0
		return func() (*stats.Stats, error) {
			o := outs[i]
			i++
			if err, ok := o.(error); ok {
				return nil, err
			}
			return o.(*stats.Stats), nil
		}
	}

	if st, n, err := retry(ctx, 3, "w", seq(detected, crash, clean)); st != clean || n != 3 || err != nil {
		t.Errorf("recovering job = %v, %d, %v; want the clean stats after 3 attempts", st, n, err)
	}
	if st, n, err := retry(ctx, 1, "w", seq(detected)); st != detected || n != 1 || err != nil {
		t.Errorf("single attempt with detections = %v, %d, %v; want its stats", st, n, err)
	}
	if _, _, err := retry(ctx, 0, "w", seq(crash)); err != crash {
		t.Errorf("single crashing attempt = %v, want its own error", err)
	}
	want := "warped: BFS still failing after 2 attempts: fault appears permanent"
	if _, _, err := retry(ctx, 2, "warped: BFS", seq(detected, crash)); err == nil || err.Error() != want {
		t.Errorf("permanent fault = %v, want %q", err, want)
	}

	// Cancelled mid-attempt: the attempt's error, no retry.
	mid, stop := context.WithCancel(ctx)
	attempts := 0
	_, n, err := retry(mid, 3, "w", func() (*stats.Stats, error) {
		attempts++
		stop()
		return nil, crash
	})
	if err != crash || n != 1 || attempts != 1 {
		t.Errorf("cancelled mid-attempt = %v after %d attempts, want the attempt's error after 1", err, attempts)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, _, err = retry(cancelled, 2, "service: job j1", func() (*stats.Stats, error) {
		t.Error("attempt ran under a cancelled context")
		return clean, nil
	})
	if err == nil || !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "service: job j1: ") {
		t.Errorf("cancelled = %v, want a service: job j1: prefixed context.Canceled", err)
	}
}

// TestInline pins the one-launch workload an assembled kernel becomes:
// the kernel's geometry and params, shared memory raised to the
// program's .shared directive, no check, a fresh Kernel per Build so
// that the Params one launch fills in never reach the next attempt,
// and launch errors named after the workload.
func TestInline(t *testing.T) {
	ctx := context.Background()
	cfg := arch.PaperConfig()
	prog, err := asm.Assemble(".kernel tiny\n.shared 256\n\tmov r0, %tid.x\n\tiadd r1, r0, 1\n\texit\n")
	if err != nil {
		t.Fatal(err)
	}
	build := func(b *Benchmark) *Run {
		t.Helper()
		run, err := b.Build(nil)
		if err != nil || len(run.Steps) != 1 || run.Check != nil {
			t.Fatalf("Build = %+v, %v; want one step and no check", run, err)
		}
		return run
	}

	for _, shared := range []int{0, 512} {
		k := build(Inline("tiny.asm", prog, sim.Kernel{GridX: 2, GridY: 1, BlockX: 64, BlockY: 1, SharedBytes: shared})).Steps[0].Kernel
		if want := max(shared, 256); k.Prog != prog || k.GridX != 2 || k.BlockX != 64 || k.SharedBytes != want {
			t.Errorf("shared %d: kernel = %+v, want tiny at 2x1 of 64x1 with %d shared bytes", shared, k, want)
		}
	}

	b := Inline("tiny.asm", prog, sim.Kernel{GridX: 2, GridY: 1, BlockX: 64, BlockY: 1})
	first := build(b)
	g, err := sim.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.LaunchContext(ctx, first.Steps[0].Kernel, sim.LaunchOpts{}); err != nil {
		t.Fatal(err)
	}
	if first.Steps[0].Kernel.Params == nil {
		t.Fatal("the launch did not fill in Params; this test no longer shows sharing")
	}
	if second := build(b).Steps[0].Kernel; second == first.Steps[0].Kernel || second.Params != nil {
		t.Errorf("second Build shares the launched kernel: %p %+v", second, second)
	}
	one, _, err := Attempt(ctx, cfg, b, sim.LaunchOpts{}, true)
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := Attempt(ctx, cfg, b, sim.LaunchOpts{}, true)
	if err != nil || !reflect.DeepEqual(one, two) {
		t.Errorf("second attempt = %+v, %v; want the first attempt's stats %+v", two, err, one)
	}

	wide := Inline("tiny.asm", prog, sim.Kernel{GridX: 1, GridY: 1, BlockX: 4096, BlockY: 1})
	want := "tiny.asm: launch 0: sim: block of 4096 threads exceeds SM capacity 1024"
	if _, _, err := Attempt(ctx, cfg, wide, sim.LaunchOpts{}, true); err == nil || err.Error() != want {
		t.Errorf("oversized launch = %v, want %q", err, want)
	}
}
