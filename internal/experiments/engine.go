package experiments

import (
	"context"

	"warped/internal/arch"
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

// runGrid executes every Table 4 benchmark under every config
// concurrently and returns the per-benchmark stats in paper order, one
// row per config. The whole cfgs × benchmarks grid is a single fan-out,
// so a figure that sweeps several machine variants keeps every worker
// busy instead of joining between sweeps.
func (e *Engine) runGrid(ctx context.Context, cfgs []arch.Config, opts sim.LaunchOpts) (names []string, res [][]*stats.Stats, err error) {
	bs := kernels.All()
	nb := len(bs)
	opts.Metrics = e.Metrics
	flat, err := runner.Map(ctx, e.pool(), len(cfgs)*nb, func(ctx context.Context, i int) (*stats.Stats, error) {
		st, _, err := kernels.Attempt(ctx, cfgs[i/nb], bs[i%nb], opts, true)
		return st, err
	})
	if err != nil {
		return nil, nil, err
	}
	names = make([]string, nb)
	for i, b := range bs {
		names[i] = b.Name
	}
	res = make([][]*stats.Stats, len(cfgs))
	for ci := range cfgs {
		res[ci] = flat[ci*nb : (ci+1)*nb]
	}
	return names, res, nil
}

// runAll is runGrid for a single configuration.
func (e *Engine) runAll(ctx context.Context, cfg arch.Config, opts sim.LaunchOpts) ([]string, []*stats.Stats, error) {
	names, res, err := e.runGrid(ctx, []arch.Config{cfg}, opts)
	if err != nil {
		return nil, nil, err
	}
	return names, res[0], nil
}
