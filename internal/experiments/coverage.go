package experiments

import (
	"context"
	"fmt"

	"warped/internal/arch"
	"warped/internal/kernels"
	"warped/internal/sim"
	"warped/internal/stats"
)

// Fig9aResult compares error coverage across the three hardware
// variants of Fig. 9(a): 4-lane SIMT clusters with in-order mapping,
// 8-lane clusters, and 4-lane clusters with the enhanced round-robin
// ("cross") thread-to-core mapping. Paper averages: 89.60 / 91.91 /
// 96.43 percent.
type Fig9aResult struct {
	Names    []string
	Cov4     []float64 // 4-lane cluster, linear mapping
	Cov8     []float64 // 8-lane cluster, linear mapping
	CovCross []float64 // 4-lane cluster, cluster round-robin mapping

	// WarpInstrs totals the issued warp-instructions over the whole
	// campaign grid (every variant × every benchmark), so wall time per
	// warp-instruction is a derivable figure of merit for the simulator.
	WarpInstrs int64
}

// Averages returns the three benchmark-average coverages.
func (r *Fig9aResult) Averages() (c4, c8, cross float64) {
	return mean(r.Cov4), mean(r.Cov8), mean(r.CovCross)
}

// Fig9a reproduces Figure 9(a) under full Warped-DMR. All three
// machine variants fan out as one grid.
func (e *Engine) Fig9a(ctx context.Context) (*Fig9aResult, error) {
	mk := func(cluster int, mapping arch.MappingPolicy) arch.Config {
		cfg := arch.PaperConfig()
		cfg.DMR = arch.DMRFull
		cfg.ClusterSize = cluster
		cfg.Mapping = mapping
		return cfg
	}
	names, res, err := e.runGrid(ctx, kernels.All(), []arch.Config{
		mk(4, arch.MapLinear),
		mk(8, arch.MapLinear),
		mk(4, arch.MapClusterRR),
	}, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	r := &Fig9aResult{Names: names}
	for bi := range names {
		r.Cov4 = append(r.Cov4, res[0][bi].Coverage())
		r.Cov8 = append(r.Cov8, res[1][bi].Coverage())
		r.CovCross = append(r.CovCross, res[2][bi].Coverage())
	}
	r.WarpInstrs = gridWarpInstrs(res)
	return r, nil
}

// gridWarpInstrs sums issued warp-instructions over a campaign grid.
func gridWarpInstrs(res [][]*stats.Stats) int64 {
	var n int64
	for _, row := range res {
		for _, s := range row {
			n += s.WarpInstrs
		}
	}
	return n
}

// Table renders the Fig. 9a data.
func (r *Fig9aResult) Table() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 9a: error coverage vs SIMT cluster organization and thread-core mapping",
		Headers: []string{"benchmark", "4-lane cluster", "8-lane cluster", "cross mapping"},
	}
	for i, n := range r.Names {
		t.AddRow(n, pct(r.Cov4[i]), pct(r.Cov8[i]), pct(r.CovCross[i]))
	}
	a4, a8, ax := r.Averages()
	t.AddRow("AVERAGE", pct(a4), pct(a8), pct(ax))
	return t
}

// Fig9bSizes are the ReplayQ capacities the paper sweeps.
var Fig9bSizes = []int{0, 1, 5, 10}

// Fig9bResult holds kernel cycles normalized to the no-DMR baseline for
// each ReplayQ size. Paper averages: 1.41 / 1.32 / 1.24 / 1.16.
type Fig9bResult struct {
	Names      []string
	Normalized [][]float64 // [benchmark][size index]

	// WarpInstrs totals the issued warp-instructions over the whole
	// campaign grid (baseline + every ReplayQ size × every benchmark).
	WarpInstrs int64
}

// Averages returns the per-size benchmark averages.
func (r *Fig9bResult) Averages() []float64 {
	out := make([]float64, len(Fig9bSizes))
	for s := range Fig9bSizes {
		var col []float64
		for _, row := range r.Normalized {
			col = append(col, row[s])
		}
		out[s] = mean(col)
	}
	return out
}

// Fig9b reproduces Figure 9(b): normalized kernel cycles under full
// Warped-DMR with ReplayQ sizes 0, 1, 5, 10. The no-DMR baseline and
// every ReplayQ size run as one (1+len(Fig9bSizes)) × benchmarks grid.
func (e *Engine) Fig9b(ctx context.Context) (*Fig9bResult, error) {
	cfgs := []arch.Config{arch.PaperConfig()}
	for _, size := range Fig9bSizes {
		cfg := arch.WarpedDMRConfig()
		cfg.ReplayQSize = size
		cfgs = append(cfgs, cfg)
	}
	names, res, err := e.runGrid(ctx, kernels.All(), cfgs, sim.LaunchOpts{})
	if err != nil {
		return nil, err
	}
	base := res[0]
	r := &Fig9bResult{Names: names, Normalized: make([][]float64, len(names))}
	for bi := range names {
		r.Normalized[bi] = make([]float64, len(Fig9bSizes))
		for si := range Fig9bSizes {
			r.Normalized[bi][si] = float64(res[si+1][bi].Cycles) / float64(base[bi].Cycles)
		}
	}
	r.WarpInstrs = gridWarpInstrs(res)
	return r, nil
}

// Table renders the Fig. 9b data.
func (r *Fig9bResult) Table() *stats.Table {
	headers := []string{"benchmark"}
	for _, s := range Fig9bSizes {
		headers = append(headers, fmt.Sprintf("q=%d", s))
	}
	t := &stats.Table{
		Title:   "Figure 9b: kernel cycles under Warped-DMR, normalized to no-DMR, vs ReplayQ size",
		Headers: headers,
	}
	for i, n := range r.Names {
		row := []string{n}
		for _, v := range r.Normalized[i] {
			row = append(row, f2(v))
		}
		t.AddRow(row...)
	}
	avg := r.Averages()
	row := []string{"AVERAGE"}
	for _, v := range avg {
		row = append(row, f2(v))
	}
	t.AddRow(row...)
	return t
}
