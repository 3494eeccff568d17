package experiments

import (
	"context"
	"errors"
	"math/rand"

	"warped/internal/arch"
	"warped/internal/core"
	"warped/internal/fault"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
)

// Engine executes experiment grids — (benchmark × config × seed) runs —
// through the internal/runner worker pool. Every run owns an
// independent sim.GPU, and results are always merged by submission
// index, so the output of any Engine method is byte-identical no matter
// how many workers execute it. The zero value runs with GOMAXPROCS
// workers; Workers: 1 reproduces a fully serial execution.
type Engine struct {
	// Workers is the worker-pool size for independent runs;
	// <= 0 means runtime.GOMAXPROCS(0).
	Workers int

	// Progress, when non-nil, is called after each completed run with
	// (done, total) counts for the current grid.
	Progress func(done, total int)

	// Metrics, when non-nil, receives operational telemetry from every
	// run of the campaign: worker-pool utilization and task latency from
	// internal/runner plus the simulator/DMR counters of each launch
	// (see docs/OBSERVABILITY.md). Attaching a registry never changes
	// the figure tables — those are derived from the deterministic
	// stats, not from the registry.
	Metrics *metrics.Registry
}

// pool translates the engine configuration for internal/runner.
func (e *Engine) pool() runner.Options {
	return runner.Options{Workers: e.Workers, OnProgress: e.Progress, Metrics: e.Metrics}
}

// runGrid runs every benchmark of bs under every config, fault-free and
// validated against its host reference, and returns the benchmark
// names and the stats as res[config][benchmark]. The whole cfgs × bs
// grid is a single fan-out, so a figure that sweeps several machine
// variants keeps every worker busy instead of joining between sweeps.
func (e *Engine) runGrid(ctx context.Context, bs []*kernels.Benchmark, cfgs []arch.Config, opts sim.LaunchOpts) (names []string, res [][]*stats.Stats, err error) {
	nb := len(bs)
	opts.Metrics = e.Metrics
	flat, err := runner.Map(ctx, e.pool(), len(cfgs)*nb, func(ctx context.Context, i int) (*stats.Stats, error) {
		st, _, err := kernels.Attempt(ctx, cfgs[i/nb], bs[i%nb], opts, true)
		return st, err
	})
	if err != nil {
		return nil, nil, err
	}
	res = make([][]*stats.Stats, len(cfgs))
	for ci := range cfgs {
		res[ci] = flat[ci*nb : (ci+1)*nb]
	}
	return benchNames(bs), res, nil
}

// byName returns the named paper-suite benchmarks, in order.
func byName(names []string) ([]*kernels.Benchmark, error) {
	bs := make([]*kernels.Benchmark, len(names))
	for i, name := range names {
		b, err := kernels.ByName(name)
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

// benchNames returns the names of bs, in order.
func benchNames(bs []*kernels.Benchmark) []string {
	names := make([]string, len(bs))
	for i, b := range bs {
		names[i] = b.Name
	}
	return names
}

// trial is what one fault-injected run shows. The harnesses read it
// differently: Campaign splits activated runs into detected, crashed
// and silent; Sampling counts detected-or-crashed as caught; and
// DetectionLatency reads delay.
type trial struct {
	activated bool // the fault corrupted at least one value
	detected  bool // a comparator fired in a launch that completed
	crashed   bool // the corrupted run aborted: a DUE, not an SDC

	// delay is the first detection, in any launch (the one that crashed
	// too), minus the first activation, in cycles, or -1 when no
	// comparator fired. Each launch restarts its cycle count, so a
	// detection in a later launch can read earlier: that clamps to 0.
	delay int64
}

// runTrial runs b once under cfg with the one fault f injected, without
// host validation: corrupted output is the trial's subject, not a
// simulator bug. The run's own crash is an outcome; a run that never
// started, or one cancelled, is an error.
func (e *Engine) runTrial(ctx context.Context, cfg arch.Config, b *kernels.Benchmark, f *fault.Fault) (trial, error) {
	inj := fault.NewInjector(f)
	firstDetect := int64(-1)
	opts := sim.LaunchOpts{Fault: inj, Metrics: e.Metrics, OnError: func(ev core.ErrorEvent) {
		if firstDetect < 0 {
			firstDetect = ev.Cycle
		}
	}}
	st, _, err := kernels.Attempt(ctx, cfg, b, opts, false)
	if err != nil && (st == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return trial{}, err
	}
	// st holds the launches that completed, so "detected" means a
	// comparator fired before any crash.
	t := trial{
		activated: inj.Activations > 0,
		detected:  st.FaultsDetected > 0,
		crashed:   err != nil,
		delay:     -1,
	}
	if firstDetect >= 0 {
		t.delay = max(firstDetect-inj.FirstActivation, 0)
	}
	return t, nil
}

// drawTransient draws the transient Sampling and DetectionLatency
// inject: a one-shot upset in the first cycles cycles, on one of the
// first 8 SMs (the block dispatcher fills low-numbered SMs first), on
// the SP unit (the most exercised) and in a low result bit (low bits
// toggle far more often), so most draws activate.
func drawTransient(rng *rand.Rand, cycles int64) *fault.Fault {
	f := fault.RandomTransient(rng, 8, cycles)
	f.Unit = isa.UnitSP
	f.Bit = uint(rng.Intn(12))
	return f
}
