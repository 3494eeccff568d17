package service

import (
	"context"
	"time"

	"warped/internal/asm"
	"warped/internal/core"
	"warped/internal/kernels"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
)

// JobResult is the durable outcome of one executed job: the merged
// deterministic statistics plus the retry bookkeeping. It mirrors the
// public warped.Result so a service answer is byte-comparable to a
// direct library run with the same canonical inputs.
type JobResult struct {
	Stats *stats.Stats `json:"stats"`

	// Attempts is the number of workload executions behind this result:
	// 1 unless the retry budget re-ran the workload after a detection.
	Attempts int `json:"attempts"`

	// Recovered reports that at least one attempt was discarded after a
	// comparator detection (or crash) and a later attempt ran clean.
	Recovered bool `json:"recovered"`

	// Detections counts comparator mismatches across all attempts.
	Detections int `json:"detections"`
}

// poolExecutor is a worker's Executor: it simulates each job on the
// worker's own runner pool, under the job timeout, reporting telemetry
// into reg.
type poolExecutor struct {
	pool    *runner.Pool
	reg     *metrics.Registry
	timeout time.Duration
}

func (p *poolExecutor) Admit(j *Job) error {
	var res *JobResult
	return p.pool.Submit(
		func() (err error) { res, err = p.run(j); return err },
		// err may be a *runner.PanicError from an isolated panic.
		func(err error) { j.Finish(res, err) },
	)
}

// run executes one admitted job on a pool worker.
func (p *poolExecutor) run(j *Job) (*JobResult, error) {
	j.Start()
	ctx := context.Background()
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	return j.canon.execute(ctx, j.id, p.reg)
}

// Ready is always nil: a pool takes work until the Server drains it.
func (p *poolExecutor) Ready() error { return nil }

func (p *poolExecutor) Stop(ctx context.Context) error { return p.pool.Drain(ctx) }

// execute runs the canonical job to completion under ctx, reporting
// operational telemetry into reg (which may be nil). Benchmark jobs
// run through kernels.Attempt and every job retries through
// kernels.Retry, the functions warped.Runner.Run calls, with one
// injector shared across attempts and validation only for fault-free
// jobs, so a service result is byte-identical to a library run.
func (c *canonicalJob) execute(ctx context.Context, id string, reg *metrics.Registry) (*JobResult, error) {
	inj, err := injector(c.Faults)
	if err != nil {
		return nil, err
	}
	out := &JobResult{}
	opts := sim.LaunchOpts{StopOnError: c.StopOnError, Metrics: reg,
		OnError: func(core.ErrorEvent) { out.Detections++ }}
	if inj != nil {
		// Assign only when non-nil: a typed nil in the FaultHook
		// interface would read as "fault injection on".
		opts.Fault = inj
	}
	attempt := func() (*stats.Stats, error) { return c.runSource(ctx, id, opts) }
	if c.Benchmark != "" {
		b, err := kernels.Lookup(c.Benchmark)
		if err != nil {
			return nil, err
		}
		attempt = func() (*stats.Stats, error) {
			st, _, err := kernels.Attempt(ctx, c.Config, b, opts, inj == nil)
			return st, err
		}
	}
	st, attempts, err := kernels.Retry(ctx, c.Attempts, "service: job "+id, attempt)
	if err != nil {
		return nil, err
	}
	out.Stats, out.Attempts, out.Recovered = st, attempts, attempts > 1
	return out, nil
}

// runSource assembles and launches an inline kernel on a fresh GPU.
// The source name is the job's content address, so assembly and
// static-verification diagnostics point back at the job that carried
// the bad kernel.
func (c *canonicalJob) runSource(ctx context.Context, id string, opts sim.LaunchOpts) (*stats.Stats, error) {
	g, err := sim.New(c.Config, 0)
	if err != nil {
		return nil, err
	}
	prog, err := asm.AssembleVerifiedNamed("job:"+id, c.Source)
	if err != nil {
		return nil, err
	}
	k := &sim.Kernel{
		Prog:        prog,
		GridX:       c.GridX,
		GridY:       c.GridY,
		BlockX:      c.BlockX,
		BlockY:      c.BlockY,
		SharedBytes: c.SharedBytes,
	}
	if k.SharedBytes < prog.SharedBytes {
		k.SharedBytes = prog.SharedBytes
	}
	if len(c.Params) > 0 {
		k.Params = mem.NewParams(c.Params...)
	}
	return g.LaunchContext(ctx, k, opts)
}
