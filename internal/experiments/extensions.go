package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"warped/internal/arch"
	"warped/internal/core"
	"warped/internal/fault"
	"warped/internal/kernels"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
)

// samplingBenchmarks are inter-warp-DMR-heavy workloads where the
// sampling trade-off is visible (intra-warp DMR is free either way).
var samplingBenchmarks = []string{"MatrixMul", "SHA", "CUFFT"}

// SamplingPoint is one duty-cycle measurement.
type SamplingPoint struct {
	DutyPct   int
	Coverage  float64 // fraction of eligible thread-instructions verified
	Overhead  float64 // cycles normalized to no-DMR
	Transient float64 // fraction of injected transients detected
}

// SamplingResult compares always-on Warped-DMR against sampling DMR
// (Nomura et al., the paper's related-work comparison): sampling trades
// coverage — especially of transients — for overhead.
type SamplingResult struct {
	Benchmarks []string
	Points     []SamplingPoint
}

// Sampling sweeps the DMR duty cycle as the protection policy
// epoch:ON/1000 (epoch:1000/1000, the 100% point, is full protection).
// The no-DMR baselines fan out across benchmarks, then each duty-cycle
// point runs as an independent task (its RNG is seeded by the duty, so
// draws stay in the serial order within a point and the sweep is
// deterministic at any worker count).
func (e *Engine) Sampling(ctx context.Context) (*SamplingResult, error) {
	duties := []int{100, 50, 25, 10}
	const epoch = 1000
	const transientTrials = 12

	base, err := runner.Map(ctx, e.pool(), len(samplingBenchmarks),
		func(ctx context.Context, i int) (*stats.Stats, error) {
			return runBench(ctx, samplingBenchmarks[i], arch.PaperConfig(), sim.LaunchOpts{})
		})
	if err != nil {
		return nil, err
	}
	baseCycles := map[string]int64{}
	for i, name := range samplingBenchmarks {
		baseCycles[name] = base[i].Cycles
	}

	points, err := runner.Map(ctx, e.pool(), len(duties),
		func(ctx context.Context, di int) (SamplingPoint, error) {
			duty := duties[di]
			cfg := arch.WarpedDMRConfig()
			cfg.Policy = arch.Policy{Kind: arch.PolicyEpoch, EpochOn: epoch * duty / 100, EpochPeriod: epoch}
			var covs, ovhs []float64
			detected, activated := 0, 0
			rng := rand.New(rand.NewSource(int64(duty)))
			for _, name := range samplingBenchmarks {
				st, err := runBench(ctx, name, cfg, sim.LaunchOpts{})
				if err != nil {
					return SamplingPoint{}, err
				}
				covs = append(covs, st.Coverage())
				ovhs = append(ovhs, float64(st.Cycles)/float64(baseCycles[name]))

				// Transient sensitivity: one random single-event upset per
				// trial, within the portion of the run DMR might see.
				for trial := 0; trial < transientTrials/len(samplingBenchmarks); trial++ {
					f := fault.RandomTransient(rng, 8, baseCycles[name])
					f.Unit = 0 // SP, the most exercised unit
					f.Bit = uint(rng.Intn(12))
					inj := fault.NewInjector(f)
					fst, err := runBench(ctx, name, cfg, sim.LaunchOpts{Fault: inj})
					if err != nil {
						if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
							return SamplingPoint{}, err
						}
						// Address corruption aborted the kernel: a DUE, which
						// counts as caught for this comparison.
						if inj.Activations > 0 {
							activated++
							detected++
						}
						continue
					}
					if inj.Activations > 0 {
						activated++
						if fst.FaultsDetected > 0 {
							detected++
						}
					}
				}
			}
			p := SamplingPoint{DutyPct: duty, Coverage: mean(covs), Overhead: mean(ovhs)}
			if activated > 0 {
				p.Transient = float64(detected) / float64(activated)
			}
			return p, nil
		})
	if err != nil {
		return nil, err
	}
	return &SamplingResult{Benchmarks: samplingBenchmarks, Points: points}, nil
}

// runBench executes one benchmark without validation short-circuiting
// on fault-corrupted outputs (validation errors are only fatal for
// fault-free runs, where they indicate simulator bugs).
func runBench(ctx context.Context, name string, cfg arch.Config, opts sim.LaunchOpts) (*stats.Stats, error) {
	b, err := kernels.ByName(name)
	if err != nil {
		return nil, err
	}
	st, _, err := kernels.Attempt(ctx, cfg, b, opts, opts.Fault == nil)
	return st, err
}

// isCrash reports whether an error from kernels.Attempt is the run's
// own crash (a DUE: a corrupted address ran off the end of memory, or a
// host step choked on corrupted output) rather than one that must end
// the measurement: a run that never started, or a cancelled one.
func isCrash(st *stats.Stats, err error) bool {
	return st != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// Table renders the sampling sweep.
func (r *SamplingResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   fmt.Sprintf("Extension: sampling DMR vs always-on Warped-DMR (avg over %v)", r.Benchmarks),
		Headers: []string{"duty", "coverage", "overhead", "transients caught"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d%%", p.DutyPct), pct(p.Coverage), f2(p.Overhead), pct(p.Transient))
	}
	return t
}

// SchedulerResult measures the paper's §2.2 observation: a second warp
// scheduler reduces (but does not eliminate) heterogeneous-unit
// underutilization.
type SchedulerResult struct {
	Names   []string
	IPC1    []float64 // one scheduler
	IPC2    []float64 // two schedulers (Fermi-style)
	Speedup []float64
}

// SchedulerStudy compares 1 vs 2 schedulers per SM with DMR off.
func (e *Engine) SchedulerStudy(ctx context.Context) (*SchedulerResult, error) {
	one := arch.PaperConfig()
	two := arch.PaperConfig()
	two.NumSchedulers = 2
	names, res, err := e.runGrid(ctx, []arch.Config{one, two}, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	r := &SchedulerResult{Names: names}
	for i := range names {
		r.IPC1 = append(r.IPC1, res[0][i].IPC())
		r.IPC2 = append(r.IPC2, res[1][i].IPC())
		r.Speedup = append(r.Speedup, float64(res[0][i].Cycles)/float64(res[1][i].Cycles))
	}
	return r, nil
}

// Table renders the scheduler study.
func (r *SchedulerResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Extension: one vs two warp schedulers per SM (paper §2.2), DMR off",
		Headers: []string{"benchmark", "IPC x1", "IPC x2", "speedup"},
	}
	var sp []float64
	for i, n := range r.Names {
		t.AddRow(n, f2(r.IPC1[i]), f2(r.IPC2[i]), f2(r.Speedup[i]))
		sp = append(sp, r.Speedup[i])
	}
	t.AddRow("AVERAGE", "", "", f2(mean(sp)))
	return t
}

// LatencyResult quantifies the paper's early-detection argument (§1):
// software schemes compare results "at the end of the program
// execution", while Warped-DMR's comparators fire within cycles of the
// corruption.
type LatencyResult struct {
	Benchmark string
	Trials    int
	Activated int
	Detected  int
	MeanDelay float64 // cycles, activation -> first comparator mismatch
	MaxDelay  int64
	KernelLen int64 // kernel cycles = the software end-of-run bound
}

// latencyTrial is one transient-injection measurement.
type latencyTrial struct {
	activated bool
	detected  bool
	delay     int64
}

// DetectionLatency injects one transient per trial under full
// Warped-DMR and measures the activation-to-detection distance. The
// per-trial faults are drawn from the seed up front, in trial order, so
// the measurement is deterministic at any worker count; the trials
// themselves fan out across the pool.
func (e *Engine) DetectionLatency(ctx context.Context, benchName string, trials int, seed int64) (*LatencyResult, error) {
	b, err := kernels.ByName(benchName)
	if err != nil {
		return nil, err
	}
	base, err := runBench(ctx, benchName, arch.PaperConfig(), sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	out := &LatencyResult{Benchmark: benchName, Trials: trials, KernelLen: base.Cycles}

	rng := rand.New(rand.NewSource(seed))
	cfg := arch.WarpedDMRConfig()
	faults := make([]*fault.Fault, trials)
	for i := range faults {
		f := fault.RandomTransient(rng, 8, base.Cycles)
		f.Unit = 0 // SP
		f.Bit = uint(rng.Intn(12))
		faults[i] = f
	}

	results, err := runner.Map(ctx, e.pool(), trials, func(ctx context.Context, i int) (latencyTrial, error) {
		inj := fault.NewInjector(faults[i])
		var firstDetect int64 = -1
		opts := sim.LaunchOpts{Fault: inj, OnError: func(ev core.ErrorEvent) {
			if firstDetect < 0 {
				firstDetect = ev.Cycle
			}
		}}
		// A crash (DUE) just ends the run early: the trial reads only the
		// first detection and the first activation, which no later
		// launch can change.
		if st, _, err := kernels.Attempt(ctx, cfg, b, opts, false); err != nil && !isCrash(st, err) {
			return latencyTrial{}, err
		}
		tr := latencyTrial{activated: inj.Activations > 0}
		if tr.activated && firstDetect >= 0 {
			tr.detected = true
			if d := firstDetect - inj.FirstActivation; d > 0 {
				tr.delay = d
			} // else detection in the same multi-launch window: delay 0
		}
		return tr, nil
	})
	if err != nil {
		return nil, err
	}

	var totalDelay int64
	for _, tr := range results {
		if !tr.activated {
			continue
		}
		out.Activated++
		if tr.detected {
			out.Detected++
			totalDelay += tr.delay
			if tr.delay > out.MaxDelay {
				out.MaxDelay = tr.delay
			}
		}
	}
	if out.Detected > 0 {
		out.MeanDelay = float64(totalDelay) / float64(out.Detected)
	}
	return out, nil
}

// Table renders the detection-latency measurement.
func (r *LatencyResult) Table() *stats.Table {
	t := &stats.Table{
		Title: "Extension: detection latency (cycles from corruption to comparator mismatch)",
		Headers: []string{"benchmark", "trials", "activated", "detected",
			"mean delay", "max delay", "end-of-kernel bound"},
	}
	t.AddRow(r.Benchmark,
		fmt.Sprintf("%d", r.Trials),
		fmt.Sprintf("%d", r.Activated),
		fmt.Sprintf("%d", r.Detected),
		fmt.Sprintf("%.1f", r.MeanDelay),
		fmt.Sprintf("%d", r.MaxDelay),
		fmt.Sprintf("%d", r.KernelLen))
	return t
}
