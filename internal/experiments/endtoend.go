package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"warped/internal/arch"
	"warped/internal/baselines"
	"warped/internal/fault"
	"warped/internal/kernels"
	"warped/internal/power"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
	"warped/internal/xfer"
)

// Fig10Result compares end-to-end time (kernel + transfers) of the
// five approaches per benchmark, normalized to Original.
type Fig10Result struct {
	Names    []string
	Kernel   [][]float64 // seconds, [benchmark][approach]
	Transfer [][]float64
}

// Fig10 reproduces Figure 10. Each (benchmark, approach) evaluation is
// an independent run, so the whole 11×5 grid fans out at once.
func (e *Engine) Fig10(ctx context.Context) (*Fig10Result, error) {
	pcie := xfer.PCIe2x16()
	bs := kernels.All()
	na := len(baselines.Approaches)
	flat, err := runner.Map(ctx, e.pool(), len(bs)*na,
		func(ctx context.Context, i int) (baselines.Result, error) {
			return baselines.EvaluateContext(ctx, baselines.Approaches[i%na], bs[i/na], arch.PaperConfig(), pcie, e.Metrics)
		})
	if err != nil {
		return nil, err
	}
	r := &Fig10Result{}
	for bi, b := range bs {
		r.Names = append(r.Names, b.Name)
		var ks, ts []float64
		for ai := 0; ai < na; ai++ {
			x := flat[bi*na+ai]
			ks = append(ks, x.KernelS)
			ts = append(ts, x.TransferS)
		}
		r.Kernel = append(r.Kernel, ks)
		r.Transfer = append(r.Transfer, ts)
	}
	return r, nil
}

// NormalizedTotals returns total time per approach normalized to
// Original, averaged over benchmarks.
func (r *Fig10Result) NormalizedTotals() []float64 {
	out := make([]float64, len(baselines.Approaches))
	for ai := range baselines.Approaches {
		var xs []float64
		for bi := range r.Names {
			orig := r.Kernel[bi][0] + r.Transfer[bi][0]
			tot := r.Kernel[bi][ai] + r.Transfer[bi][ai]
			xs = append(xs, tot/orig)
		}
		out[ai] = mean(xs)
	}
	return out
}

// Table renders the Fig. 10 data (total milliseconds, kernel+transfer).
func (r *Fig10Result) Table() *stats.Table {
	headers := []string{"benchmark"}
	for _, a := range baselines.Approaches {
		headers = append(headers, a.String())
	}
	t := &stats.Table{
		Title:   "Figure 10: end-to-end time (ms), kernel + data transfer",
		Headers: headers,
	}
	for bi, n := range r.Names {
		row := []string{n}
		for ai := range baselines.Approaches {
			ms := (r.Kernel[bi][ai] + r.Transfer[bi][ai]) * 1e3
			row = append(row, fmt.Sprintf("%.3f", ms))
		}
		t.AddRow(row...)
	}
	norm := r.NormalizedTotals()
	row := []string{"AVG (normalized)"}
	for _, v := range norm {
		row = append(row, f2(v))
	}
	t.AddRow(row...)
	return t
}

// Fig11Result holds power and energy of Warped-DMR normalized to the
// no-detection baseline. Paper averages: power 1.11x, energy 1.31x.
type Fig11Result struct {
	Names  []string
	Power  []float64
	Energy []float64
}

// Averages returns the benchmark-average normalized power and energy.
func (r *Fig11Result) Averages() (p, e float64) { return mean(r.Power), mean(r.Energy) }

// Fig11 reproduces Figure 11 with the Hong&Kim-style model.
func (e *Engine) Fig11(ctx context.Context) (*Fig11Result, error) {
	pp := power.DefaultParams()
	baseCfg := arch.PaperConfig()
	dmrCfg := arch.WarpedDMRConfig()
	names, res, err := e.runGrid(ctx, kernels.All(), []arch.Config{baseCfg, dmrCfg}, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	r := &Fig11Result{Names: names}
	for i := range names {
		b := power.Estimate(baseCfg, pp, res[0][i])
		d := power.Estimate(dmrCfg, pp, res[1][i])
		r.Power = append(r.Power, d.TotalW/b.TotalW)
		r.Energy = append(r.Energy, d.EnergyJ/b.EnergyJ)
	}
	return r, nil
}

// Table renders the Fig. 11 data.
func (r *Fig11Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 11: Warped-DMR power and energy, normalized to no-detection baseline",
		Headers: []string{"benchmark", "power", "energy"},
	}
	for i, n := range r.Names {
		t.AddRow(n, f2(r.Power[i]), f2(r.Energy[i]))
	}
	p, e := r.Averages()
	t.AddRow("AVERAGE", f2(p), f2(e))
	return t
}

// CampaignResult summarizes a fault-injection campaign (extension
// experiment validating the Fig. 9a coverage numbers empirically).
type CampaignResult struct {
	Benchmark string
	Runs      int
	Activated int // runs where the fault corrupted at least one value
	Detected  int // activated runs flagged by a DMR comparator
	Crashed   int // activated runs aborted by an address fault
	Silent    int // activated runs that finished unflagged (SDC or benign)
}

// DetectionRate returns detected / activated (0 if nothing activated).
func (c CampaignResult) DetectionRate() float64 {
	if c.Activated == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Activated)
}

// Campaign injects n random stuck-at faults (one per run) into a
// benchmark under full Warped-DMR and reports how many were caught.
// The fault sequence is drawn from the seed up front, in run order, so
// the campaign is reproducible and byte-identical at any worker count;
// the n runs themselves fan out across the pool.
func (e *Engine) Campaign(ctx context.Context, benchName string, n int, seed int64) (*CampaignResult, error) {
	return e.CampaignConfig(ctx, benchName, arch.WarpedDMRConfig(), n, seed)
}

// CampaignConfig is Campaign under an explicit machine configuration —
// the knob the Pareto harness turns to measure how a selective
// protection policy (cfg.Policy) degrades empirical detection. The
// fault sequence depends only on (n, seed, cfg.NumSMs), so sweeps that
// vary the policy inject identical faults and their detection rates
// are directly comparable.
func (e *Engine) CampaignConfig(ctx context.Context, benchName string, cfg arch.Config, n int, seed int64) (*CampaignResult, error) {
	// Extras campaign too: the synthesized-policy sweep validates its
	// reference microbenchmark the same way as the paper suite.
	b, err := kernels.Lookup(benchName)
	if err != nil {
		return nil, err
	}
	// Bias toward hardware the workload actually exercises: the block
	// dispatcher fills low-numbered SMs first, and low result bits
	// toggle far more often than high ones, so unbiased draws mostly
	// produce faults that never activate.
	rng := rand.New(rand.NewSource(seed))
	faults := make([]*fault.Fault, n)
	for i := range faults {
		f := fault.RandomStuckAt(rng, min(cfg.NumSMs, 8))
		f.Bit = uint(rng.Intn(12))
		faults[i] = f
	}

	trials, err := runner.Map(ctx, e.pool(), n, func(ctx context.Context, i int) (trial, error) {
		return e.runTrial(ctx, cfg, b, faults[i])
	})
	if err != nil {
		return nil, err
	}

	out := &CampaignResult{Benchmark: benchName, Runs: n}
	for _, t := range trials {
		if !t.activated {
			continue
		}
		out.Activated++
		switch {
		case t.detected:
			out.Detected++
		case t.crashed:
			out.Crashed++
		default:
			out.Silent++
		}
	}
	return out, nil
}

// CampaignTable renders a set of campaign results.
func CampaignTable(rs []*CampaignResult) *stats.Table {
	t := &stats.Table{
		Title:   "Fault injection campaign: random stuck-at faults under full Warped-DMR",
		Headers: []string{"benchmark", "runs", "activated", "detected", "crashed", "silent", "detection"},
	}
	for _, c := range rs {
		t.AddRow(c.Benchmark,
			fmt.Sprintf("%d", c.Runs),
			fmt.Sprintf("%d", c.Activated),
			fmt.Sprintf("%d", c.Detected),
			fmt.Sprintf("%d", c.Crashed),
			fmt.Sprintf("%d", c.Silent),
			pct(c.DetectionRate()))
	}
	return t
}
