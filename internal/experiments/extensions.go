package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"warped/internal/arch"
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
// The DMR-off baselines and every duty point's fault-free runs fan out
// as one grid, then every transient trial fans out at once. Each duty
// point draws its transients from an RNG seeded by the duty, in
// benchmark-then-trial order, so the sweep is deterministic at any
// worker count.
func (e *Engine) Sampling(ctx context.Context) (*SamplingResult, error) {
	duties := []int{100, 50, 25, 10}
	const epoch = 1000
	const transientTrials = 12

	bs, err := byName(samplingBenchmarks)
	if err != nil {
		return nil, err
	}
	// Config 0 is the DMR-off overhead baseline; config 1+di is duty
	// point di.
	cfgs := []arch.Config{arch.PaperConfig()}
	for _, duty := range duties {
		cfg := arch.WarpedDMRConfig()
		cfg.Policy = arch.Policy{Kind: arch.PolicyEpoch, EpochOn: epoch * duty / 100, EpochPeriod: epoch}
		cfgs = append(cfgs, cfg)
	}
	_, res, err := e.runGrid(ctx, bs, cfgs, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	base := res[0]

	// Transient sensitivity: one random single-event upset per trial,
	// within the portion of the run DMR might see. Trial i belongs to
	// duty point i/perDuty and benchmark i%perDuty/perBench.
	perBench := transientTrials / len(bs)
	perDuty := perBench * len(bs)
	faults := make([]*fault.Fault, 0, len(duties)*perDuty)
	for _, duty := range duties {
		rng := rand.New(rand.NewSource(int64(duty)))
		for bi := range bs {
			for k := 0; k < perBench; k++ {
				faults = append(faults, drawTransient(rng, base[bi].Cycles))
			}
		}
	}
	trials, err := runner.Map(ctx, e.pool(), len(faults), func(ctx context.Context, i int) (trial, error) {
		return e.runTrial(ctx, cfgs[1+i/perDuty], bs[i%perDuty/perBench], faults[i])
	})
	if err != nil {
		return nil, err
	}

	r := &SamplingResult{Benchmarks: samplingBenchmarks}
	for di, duty := range duties {
		var covs, ovhs []float64
		for bi, st := range res[1+di] {
			covs = append(covs, st.Coverage())
			ovhs = append(ovhs, float64(st.Cycles)/float64(base[bi].Cycles))
		}
		p := SamplingPoint{DutyPct: duty, Coverage: mean(covs), Overhead: mean(ovhs)}
		// A crash (DUE) counts as caught for this comparison.
		caught, activated := 0, 0
		for _, t := range trials[di*perDuty : (di+1)*perDuty] {
			if t.activated {
				activated++
				if t.detected || t.crashed {
					caught++
				}
			}
		}
		if activated > 0 {
			p.Transient = float64(caught) / float64(activated)
		}
		r.Points = append(r.Points, p)
	}
	return r, nil
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
	names, res, err := e.runGrid(ctx, kernels.All(), []arch.Config{one, two}, sim.LaunchOpts{})
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

// DetectionLatency injects one transient per trial under full
// Warped-DMR and measures the activation-to-detection distance. A
// trial's first detection counts a comparator firing in any launch,
// the one a crash aborted too, unlike the campaign's "detected" (see
// EXPERIMENTS.md). The per-trial faults are drawn from the seed up
// front, in trial order, so the measurement is deterministic at any
// worker count; the trials themselves fan out across the pool.
func (e *Engine) DetectionLatency(ctx context.Context, benchName string, trials int, seed int64) (*LatencyResult, error) {
	b, err := kernels.ByName(benchName)
	if err != nil {
		return nil, err
	}
	_, res, err := e.runGrid(ctx, []*kernels.Benchmark{b}, []arch.Config{arch.PaperConfig()}, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	base := res[0][0]
	out := &LatencyResult{Benchmark: benchName, Trials: trials, KernelLen: base.Cycles}

	rng := rand.New(rand.NewSource(seed))
	faults := make([]*fault.Fault, trials)
	for i := range faults {
		faults[i] = drawTransient(rng, base.Cycles)
	}
	cfg := arch.WarpedDMRConfig()
	results, err := runner.Map(ctx, e.pool(), trials, func(ctx context.Context, i int) (trial, error) {
		return e.runTrial(ctx, cfg, b, faults[i])
	})
	if err != nil {
		return nil, err
	}

	var totalDelay int64
	for _, t := range results {
		if !t.activated {
			continue
		}
		out.Activated++
		if t.delay >= 0 {
			out.Detected++
			totalDelay += t.delay
			out.MaxDelay = max(out.MaxDelay, t.delay)
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
