package service

import (
	"context"
	"fmt"
	"time"

	"warped/internal/asm"
	"warped/internal/kernels"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/verify"
)

// JobResult is the durable outcome of one executed job, the same
// outcome type warped.Runner.Run builds its Result from, so a service
// answer is byte-comparable to a direct library run with the same
// canonical inputs.
type JobResult = kernels.Outcome

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
// operational telemetry into reg (which may be nil). It runs through
// kernels.RunJob, as warped.Runner.Run does, with one injector shared
// across attempts and validation only for fault-free jobs, so a
// service result is byte-identical to a library run.
func (c *canonicalJob) execute(ctx context.Context, id string, reg *metrics.Registry) (*JobResult, error) {
	inj, err := injector(c.Faults)
	if err != nil {
		return nil, err
	}
	b, err := c.workload(id)
	if err != nil {
		return nil, err
	}
	opts := sim.LaunchOpts{StopOnError: c.StopOnError, Metrics: reg}
	if inj != nil {
		// Assign only when non-nil: a typed nil in the FaultHook
		// interface would read as "fault injection on".
		opts.Fault = inj
	}
	return kernels.RunJob(ctx, c.Config, b, opts, c.Attempts, inj == nil, "service: job "+id)
}

// workload is the job's workload: a bundled benchmark, or the inline
// kernel, assembled, verified and checked against the machine once per
// execution before any attempt runs, so the retry budget never turns
// its diagnostic into a permanent-fault answer. The source name is the
// job's content address, so assembly, static-verification and
// launch-configuration diagnostics point back at the job that carried
// the bad kernel. The verifier checks the job's launch geometry, as
// warpsim -kernel does, so the tid-aware shared-bounds and race rules
// apply even when the kernel declares no .block of its own.
func (c *canonicalJob) workload(id string) (*kernels.Benchmark, error) {
	if c.Benchmark != "" {
		return kernels.Lookup(c.Benchmark)
	}
	name := "job:" + id
	prog, err := asm.AssembleNamed(name, c.Source)
	if err != nil {
		return nil, err
	}
	if fs := verify.CheckWith(prog, verify.Options{BlockDimX: c.BlockX, BlockDimY: c.BlockY}); fs.Errors() > 0 {
		return nil, &asm.VerifyError{File: name, Kernel: prog.Name, Findings: fs}
	}
	b := kernels.Inline(name, prog, sim.Kernel{GridX: c.GridX, GridY: c.GridY, BlockX: c.BlockX, BlockY: c.BlockY,
		SharedBytes: c.SharedBytes, Params: mem.NewParams(c.Params...)})
	// Check the kernel Inline builds, its shared memory raised to the
	// .shared directive, with the text its launch would fail with.
	run, err := b.Build(nil)
	if err != nil {
		return nil, err
	}
	if err := run.Steps[0].Kernel.Validate(c.Config); err != nil {
		return nil, fmt.Errorf("%s: launch 0: %w", name, err)
	}
	return b, nil
}
