package experiments

import (
	"context"
	"strings"
	"testing"
)

// These are the repository's acceptance tests: each asserts the
// qualitative claims of the corresponding paper figure. They simulate
// the full benchmark suite several times, so they skip in -short mode.

func TestFig1Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != 11 {
		t.Fatalf("expected 11 benchmarks, got %d", len(r.Names))
	}
	byName := map[string][5]float64{}
	for i, n := range r.Names {
		f := r.Fractions[i]
		sum := f[0] + f[1] + f[2] + f[3] + f[4]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: fractions sum to %v", n, sum)
		}
		byName[n] = f
	}
	// The paper's headline Fig. 1 observations.
	if f := byName["BFS"]; f[0]+f[1] < 0.4 {
		t.Errorf("BFS should be mostly low-occupancy: %v", f)
	}
	if f := byName["MatrixMul"]; f[4] < 0.99 {
		t.Errorf("MatrixMul should be fully utilized: %v", f)
	}
	if f := byName["SHA"]; f[4] < 0.99 {
		t.Errorf("SHA should be fully utilized: %v", f)
	}
	if f := byName["BitonicSort"]; f[4] > 0.6 {
		t.Errorf("BitonicSort should be heavily underutilized: %v", f)
	}
	tb := r.Table()
	if !strings.Contains(tb.String(), "BFS") {
		t.Error("table rendering broken")
	}
}

func TestFig5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][3]float64{}
	for i, n := range r.Names {
		byName[n] = r.Fractions[i]
	}
	// SP dominates everywhere; only Libor and CUFFT use the SFUs.
	for n, f := range byName {
		if f[0] < 0.3 {
			t.Errorf("%s: SP share %v implausibly low", n, f[0])
		}
	}
	if byName["Libor"][1] == 0 || byName["CUFFT"][1] == 0 {
		t.Error("Libor and CUFFT must show SFU activity")
	}
	if byName["SHA"][1] != 0 {
		t.Error("SHA uses no SFUs")
	}
}

func TestFig8aBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig8a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: most same-type runs are short (<6), bounded near ~20.
	// Our barrier-phased BitonicSort runs longer same-type stretches
	// (all warps of its single block execute the same step in lockstep),
	// so the bound here is looser; the deviation is recorded in
	// EXPERIMENTS.md.
	for i, n := range r.Names {
		for _, m := range r.Mean[i] {
			if m > 60 {
				t.Errorf("%s: mean run length %v far beyond the paper's bound", n, m)
			}
		}
	}
}

func TestFig8bDistances(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig8b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Names) != len(fig8bBenchmarks) {
		t.Fatalf("tracked %d benchmarks, want %d", len(r.Names), len(fig8bBenchmarks))
	}
	for i, n := range r.Names {
		if r.MinDist[i] < 1 {
			t.Errorf("%s: min RAW distance %d", n, r.MinDist[i])
		}
		// Paper: RAW distances are "at least 8 cycles" in the common
		// case; our shallower pipeline yields SPLat-scale minimums, and
		// most distances must be comfortably larger.
		if r.FracGE8[i] < 0.2 {
			t.Errorf("%s: only %.1f%% of RAW distances >= 8", n, 100*r.FracGE8[i])
		}
	}
}

// TestFig9aOrdering is the headline coverage result: 4-lane clusters <
// 8-lane clusters < 4-lane with cross mapping, with intra-warp-friendly
// benchmarks near 100%.
func TestFig9aOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig9a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a4, a8, ax := r.Averages()
	if !(a4 < a8 && a8 < ax) {
		t.Errorf("coverage ordering broken: 4c=%.3f 8c=%.3f cross=%.3f (paper: 89.6 < 91.9 < 96.4)",
			a4, a8, ax)
	}
	byName := map[string]int{}
	for i, n := range r.Names {
		byName[n] = i
	}
	// Fully-utilized workloads are covered ~100% by inter-warp DMR.
	for _, n := range []string{"MatrixMul", "SHA", "Libor"} {
		if c := r.CovCross[byName[n]]; c < 0.999 {
			t.Errorf("%s cross coverage %.4f, want ~1.0", n, c)
		}
	}
	// BFS is covered almost entirely by intra-warp DMR.
	if c := r.CovCross[byName["BFS"]]; c < 0.95 {
		t.Errorf("BFS coverage %.4f, want >= 0.95", c)
	}
	for i := range r.Names {
		for _, c := range []float64{r.Cov4[i], r.Cov8[i], r.CovCross[i]} {
			if c < 0 || c > 1 {
				t.Errorf("%s: coverage %v out of range", r.Names[i], c)
			}
		}
	}
}

// TestFig9bMonotonic: overhead decreases as the ReplayQ grows, and the
// q=10 average sits in the paper's ballpark (<= ~1.2 vs paper's 1.16).
func TestFig9bMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig9b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	avg := r.Averages()
	for i := 1; i < len(avg); i++ {
		if avg[i] > avg[i-1]+0.005 {
			t.Errorf("average overhead not monotonically decreasing: %v", avg)
		}
	}
	if last := avg[len(avg)-1]; last < 1.0 || last > 1.25 {
		t.Errorf("q=10 average overhead %.3f, paper reports 1.16", last)
	}
	for i, n := range r.Names {
		for _, v := range r.Normalized[i] {
			if v < 0.98 {
				t.Errorf("%s: normalized cycles %v below 1 (DMR cannot speed things up)", n, v)
			}
		}
	}
}

func TestFig10Normalized(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	norm := r.NormalizedTotals()
	// Order: Original, R-Naive, R-Thread, DMTR, Warped-DMR.
	if norm[0] != 1.0 {
		t.Errorf("Original normalized to %v", norm[0])
	}
	if !(norm[4] < norm[3] && norm[3] < norm[2] && norm[2] < norm[1]) {
		t.Errorf("Fig. 10 ordering broken: %v (want Warped < DMTR < R-Thread < R-Naive)", norm)
	}
	if norm[1] < 1.9 {
		t.Errorf("R-Naive should be ~2x, got %v", norm[1])
	}
}

func TestFig11PowerEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Fig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p, e := r.Averages()
	if p < 1.0 || p > 1.2 {
		t.Errorf("normalized power %.3f, paper reports 1.11", p)
	}
	if e < p {
		t.Errorf("energy overhead (%.3f) must exceed power overhead (%.3f): DMR also takes longer", e, p)
	}
	if e > 1.45 {
		t.Errorf("normalized energy %.3f far above the paper's 1.31", e)
	}
}

func TestCampaignDetectsFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	c, err := new(Engine).Campaign(context.Background(), "MatrixMul", 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if c.Activated == 0 {
		t.Fatal("campaign activated no faults; injection is mistargeted")
	}
	// The paper's coverage claim: activated faults rarely slip through
	// silently on a fully-covered benchmark.
	if c.Silent > c.Activated/4 {
		t.Errorf("%d of %d activated faults escaped silently", c.Silent, c.Activated)
	}
	tb := CampaignTable([]*CampaignResult{c})
	if !strings.Contains(tb.String(), "MatrixMul") {
		t.Error("campaign table broken")
	}
}

func TestSchedulerStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).SchedulerStudy(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	anyGain := false
	for i, n := range r.Names {
		if r.Speedup[i] < 0.97 {
			t.Errorf("%s: second scheduler slowed things down (%.2f)", n, r.Speedup[i])
		}
		if r.Speedup[i] > 1.1 {
			anyGain = true
		}
	}
	if !anyGain {
		t.Error("no benchmark gained from a second scheduler; §2.2 effect missing")
	}
}

func TestSamplingTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).Sampling(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 3 {
		t.Fatalf("too few sweep points: %d", len(r.Points))
	}
	// Coverage must fall monotonically with duty cycle; overhead must
	// not rise. The always-on point must dominate on coverage.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].Coverage >= r.Points[i-1].Coverage {
			t.Errorf("coverage not decreasing with duty: %+v", r.Points)
		}
		if r.Points[i].Overhead > r.Points[i-1].Overhead+0.02 {
			t.Errorf("overhead increased with lower duty: %+v", r.Points)
		}
	}
	if r.Points[0].DutyPct != 100 || r.Points[0].Coverage < 0.9 {
		t.Errorf("always-on point wrong: %+v", r.Points[0])
	}
}

func TestDetectionLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	r, err := new(Engine).DetectionLatency(context.Background(), "MatrixMul", 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	if r.Activated == 0 {
		t.Fatal("no faults activated")
	}
	if r.Detected < r.Activated/2 {
		t.Errorf("only %d of %d activated transients detected", r.Detected, r.Activated)
	}
	// The whole point: detection long before the end of the kernel.
	if r.MeanDelay > float64(r.KernelLen)/10 {
		t.Errorf("mean delay %.0f too close to the end-of-kernel bound %d",
			r.MeanDelay, r.KernelLen)
	}
	if r.MaxDelay < 0 {
		t.Error("negative delay")
	}
}
