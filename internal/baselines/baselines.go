// Package baselines implements the error-detection approaches the
// paper compares against in Fig. 10:
//
//   - R-Naive (Dimitrov et al.): run the whole kernel twice and compare
//     outputs on the host — double kernel time AND double transfers.
//   - R-Thread (Dimitrov et al.): double the thread blocks inside the
//     kernel; redundancy hides only if SMs were idle, and the output
//     must be copied back twice for host-side comparison.
//   - DMTR: dual modular temporal redundancy — every instruction is
//     re-executed on its unit in the following cycle (a 1-cycle-slack
//     SRT), with results compared on the GPU.
//   - Warped-DMR: the paper's approach (internal/core), comparing on
//     the GPU with opportunistic spatial/temporal redundancy.
package baselines

import (
	"context"
	"fmt"

	"warped/internal/arch"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/sim"
	"warped/internal/stats"
	"warped/internal/xfer"
)

// Approach enumerates the compared error-detection schemes.
type Approach int

const (
	Original Approach = iota
	RNaive
	RThread
	DMTR
	WarpedDMR
)

func (a Approach) String() string {
	switch a {
	case Original:
		return "Original"
	case RNaive:
		return "R-Naive"
	case RThread:
		return "R-Thread"
	case DMTR:
		return "DMTR"
	case WarpedDMR:
		return "Warped-DMR"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Approaches lists all schemes in the order Fig. 10 presents them.
var Approaches = []Approach{Original, RNaive, RThread, DMTR, WarpedDMR}

// Result is one (benchmark, approach) end-to-end evaluation.
type Result struct {
	Approach  Approach
	KernelS   float64 // kernel execution seconds (simulated cycles x clock)
	TransferS float64 // host<->device transfer seconds
	Stats     *stats.Stats
}

// TotalS returns end-to-end seconds.
func (r Result) TotalS() float64 { return r.KernelS + r.TransferS }

// Evaluate runs the benchmark under one approach and returns its
// end-to-end time decomposition. base must have DMR disabled; Evaluate
// derives the per-approach configuration from it.
func Evaluate(a Approach, bench *kernels.Benchmark, base arch.Config, pcie xfer.Model) (Result, error) {
	return EvaluateContext(context.Background(), a, bench, base, pcie, nil)
}

// EvaluateContext is Evaluate with cooperative cancellation plumbed
// into every kernel launch, reporting each launch's simulator counters
// into reg (which may be nil).
func EvaluateContext(ctx context.Context, a Approach, bench *kernels.Benchmark, base arch.Config, pcie xfer.Model, reg *metrics.Registry) (Result, error) {
	cfg := base
	cfg.DMR = arch.DMROff
	b := bench
	switch a {
	case Original, RNaive:
		// plain machine; R-Naive differences are applied after the run
	case RThread:
		b = shadowed(bench)
	case DMTR:
		cfg.DMR = arch.DMRTemporalAll
		cfg.LaneShuffle = true
	case WarpedDMR:
		cfg.DMR = arch.DMRFull
		cfg.Mapping = arch.MapClusterRR
	}

	// Validate every approach: shadow blocks never write global memory,
	// so even the R-Thread run must leave bit-correct outputs behind.
	total, run, err := kernels.Attempt(ctx, cfg, b, sim.LaunchOpts{Metrics: reg}, true)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", a, err)
	}

	kernelS := float64(total.Cycles) * cfg.ClockNS * 1e-9
	transferS := pcie.RoundTrip(run.InBytes, run.OutBytes)
	switch a {
	case RNaive:
		// Two full kernel invocations, two full transfer round trips,
		// plus reading both outputs back for the host compare is already
		// included in the doubled round trip.
		kernelS *= 2
		transferS *= 2
	case RThread:
		// One upload, but both the original and redundant outputs come
		// back for comparison on the host.
		transferS = pcie.Time(run.InBytes) + 2*pcie.Time(run.OutBytes)
	case Original, DMTR, WarpedDMR:
		// Single launch, single round trip: the simulated cycles and the
		// plain transfer model already cover these.
	}
	return Result{Approach: a, KernelS: kernelS, TransferS: transferS, Stats: total}, nil
}

// shadowed returns a copy of bench whose launches each double their
// grid with shadow blocks: the R-Thread redundant thread blocks.
func shadowed(bench *kernels.Benchmark) *kernels.Benchmark {
	b := *bench
	b.Build = func(g *sim.GPU) (*kernels.Run, error) {
		run, err := bench.Build(g)
		if err != nil {
			return nil, err
		}
		for _, step := range run.Steps {
			step.Kernel.ShadowGrid = true
		}
		return run, nil
	}
	return &b
}

// EvaluateAll runs every approach for one benchmark.
func EvaluateAll(bench *kernels.Benchmark, base arch.Config, pcie xfer.Model) ([]Result, error) {
	return EvaluateAllContext(context.Background(), bench, base, pcie)
}

// EvaluateAllContext runs every approach for one benchmark under ctx.
func EvaluateAllContext(ctx context.Context, bench *kernels.Benchmark, base arch.Config, pcie xfer.Model) ([]Result, error) {
	out := make([]Result, 0, len(Approaches))
	for _, a := range Approaches {
		r, err := EvaluateContext(ctx, a, bench, base, pcie, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
