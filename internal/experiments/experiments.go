// Package experiments regenerates every figure and table of the
// paper's evaluation (§5) on the simulator: utilization breakdowns
// (Fig. 1, 5), ReplayQ sizing factors (Fig. 8a/8b), error coverage
// across RFU/cluster/mapping variants (Fig. 9a), performance overhead
// versus ReplayQ size (Fig. 9b), the end-to-end comparison against
// software and temporal-DMR baselines (Fig. 10), power and energy
// (Fig. 11), and a fault-injection campaign that validates the
// coverage numbers empirically (repository extension).
//
// Every harness runs its (benchmark × config × seed) grid through the
// Engine's worker pool: independent runs execute concurrently, results
// merge by submission index, and the rendered tables are byte-identical
// to a serial execution. The zero Engine is ready to use.
package experiments

import (
	"context"
	"fmt"

	"warped/internal/arch"
	"warped/internal/kernels"
	"warped/internal/sim"
	"warped/internal/stats"
)

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
func f2(f float64) string  { return fmt.Sprintf("%.2f", f) }
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Fig1Result is the execution-time breakdown by active thread count.
type Fig1Result struct {
	Names     []string
	Fractions [][5]float64 // per benchmark: buckets 1, 2-11, 12-21, 22-31, 32
}

// Fig1 reproduces Figure 1 on the plain (no-DMR) machine.
func (e *Engine) Fig1(ctx context.Context) (*Fig1Result, error) {
	names, res, err := e.runGrid(ctx, kernels.All(), []arch.Config{arch.PaperConfig()}, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	r := &Fig1Result{Names: names}
	for _, st := range res[0] {
		r.Fractions = append(r.Fractions, st.ActiveFractions())
	}
	return r, nil
}

// Table renders the Fig. 1 data.
func (r *Fig1Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 1: execution-time breakdown by number of active threads",
		Headers: append([]string{"benchmark"}, stats.ActiveBuckets...),
	}
	for i, n := range r.Names {
		f := r.Fractions[i]
		t.AddRow(n, pct(f[0]), pct(f[1]), pct(f[2]), pct(f[3]), pct(f[4]))
	}
	return t
}

// Fig5Result is the execution-time breakdown by instruction type.
type Fig5Result struct {
	Names     []string
	Fractions [][3]float64 // SP, SFU, LDST
}

// Fig5 reproduces Figure 5.
func (e *Engine) Fig5(ctx context.Context) (*Fig5Result, error) {
	names, res, err := e.runGrid(ctx, kernels.All(), []arch.Config{arch.PaperConfig()}, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	r := &Fig5Result{Names: names}
	for _, st := range res[0] {
		r.Fractions = append(r.Fractions, st.TypeFractions())
	}
	return r, nil
}

// Table renders the Fig. 5 data.
func (r *Fig5Result) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 5: execution-time breakdown by instruction type",
		Headers: []string{"benchmark", "SP", "SFU", "LD/ST"},
	}
	for i, n := range r.Names {
		f := r.Fractions[i]
		t.AddRow(n, pct(f[0]), pct(f[1]), pct(f[2]))
	}
	return t
}

// Fig8aResult holds average same-type issue run lengths per unit class.
type Fig8aResult struct {
	Names []string
	Mean  [][3]float64 // SP, LDST, SFU run lengths per benchmark
}

// Fig8a reproduces Figure 8(a): the average distance before the
// issued instruction type switches — the key ReplayQ sizing input.
func (e *Engine) Fig8a(ctx context.Context) (*Fig8aResult, error) {
	names, res, err := e.runGrid(ctx, kernels.All(), []arch.Config{arch.PaperConfig()}, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	r := &Fig8aResult{Names: names}
	for _, st := range res[0] {
		r.Mean = append(r.Mean, [3]float64{
			st.Runs.Mean(0), st.Runs.Mean(2), st.Runs.Mean(1),
		})
	}
	return r, nil
}

// Table renders the Fig. 8a data.
func (r *Fig8aResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 8a: average same-type run length before an instruction type switch (issue slots)",
		Headers: []string{"benchmark", "SP", "LDST", "SFU"},
	}
	for i, n := range r.Names {
		m := r.Mean[i]
		t.AddRow(n, f2(m[0]), f2(m[1]), f2(m[2]))
	}
	return t
}

// Fig8bResult holds RAW dependency distance distributions for the
// paper's tracked warp, per benchmark.
type Fig8bResult struct {
	Names     []string
	MinDist   []int64
	FracGE8   []float64
	FracGE100 []float64
	Trackers  []*stats.RAWTracker
}

// fig8bBenchmarks are the benchmarks the paper plots in Fig. 8b.
var fig8bBenchmarks = []string{
	"MatrixMul", "CUFFT", "BitonicSort", "Nqueen", "Laplace", "SHA", "RadixSort",
}

// Fig8b reproduces Figure 8(b): cycles between a register write and
// its next read in one tracked warp (warp 1, or warp 0 for single-warp
// blocks, as the paper does for SHA).
func (e *Engine) Fig8b(ctx context.Context) (*Fig8bResult, error) {
	bs, err := byName(fig8bBenchmarks)
	if err != nil {
		return nil, err
	}
	names, res, err := e.runGrid(ctx, bs, []arch.Config{arch.PaperConfig()}, sim.LaunchOpts{TrackRAW: true})
	if err != nil {
		return nil, err
	}
	r := &Fig8bResult{Names: names}
	for i, st := range res[0] {
		raw := st.RAW
		if raw == nil {
			return nil, fmt.Errorf("experiments: no RAW tracker for %s", names[i])
		}
		r.MinDist = append(r.MinDist, raw.Min())
		r.FracGE8 = append(r.FracGE8, raw.FractionAtLeast(8))
		r.FracGE100 = append(r.FracGE100, raw.FractionAtLeast(100))
		r.Trackers = append(r.Trackers, raw)
	}
	return r, nil
}

// Table renders the Fig. 8b summary (min distance and tail fractions).
func (r *Fig8bResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 8b: RAW dependency distances of the tracked warp's registers (cycles)",
		Headers: []string{"benchmark", "min", ">=8", ">=100"},
	}
	for i, n := range r.Names {
		t.AddRow(n, fmt.Sprintf("%d", r.MinDist[i]), pct(r.FracGE8[i]), pct(r.FracGE100[i]))
	}
	return t
}
