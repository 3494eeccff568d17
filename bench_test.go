package warped

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"warped/internal/arch"
	"warped/internal/baselines"
	"warped/internal/kernels"
	"warped/internal/sim"
	"warped/internal/xfer"
)

// One benchmark per paper table/figure: running `go test -bench=.`
// regenerates every evaluation result and reports it through -v output
// or the cmd/experiments CLI. b.N loops re-run the full measurement so
// the benchmarks also double as timing probes of the simulator itself.

func BenchmarkFig1Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Table().String())
		}
	}
}

func BenchmarkFig5InstructionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Table().String())
		}
	}
}

func BenchmarkFig8aTypeSwitchDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig8a(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Table().String())
		}
	}
}

func BenchmarkFig8bRAWDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig8b(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Table().String())
		}
	}
}

func BenchmarkFig9aCoverage(b *testing.B) {
	var warpInstrs int64
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig9a(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		warpInstrs += r.WarpInstrs
		if i == 0 {
			a4, a8, ax := r.Averages()
			b.Logf("\n%s", r.Table().String())
			b.ReportMetric(100*a4, "%cov4c")
			b.ReportMetric(100*a8, "%cov8c")
			b.ReportMetric(100*ax, "%covCross")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(warpInstrs), "ns/warpinstr")
}

func BenchmarkFig9bReplayQOverhead(b *testing.B) {
	var warpInstrs int64
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig9b(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		warpInstrs += r.WarpInstrs
		if i == 0 {
			avg := r.Averages()
			b.Logf("\n%s", r.Table().String())
			b.ReportMetric(avg[len(avg)-1], "x-overhead-q10")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(warpInstrs), "ns/warpinstr")
}

func BenchmarkFig10EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", r.Table().String())
			norm := r.NormalizedTotals()
			b.ReportMetric(norm[4], "x-warped")
			b.ReportMetric(norm[1], "x-rnaive")
		}
	}
}

func BenchmarkFig11PowerEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := new(Engine).Fig11(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			p, e := r.Averages()
			b.Logf("\n%s", r.Table().String())
			b.ReportMetric(p, "x-power")
			b.ReportMetric(e, "x-energy")
		}
	}
}

func BenchmarkFaultInjectionCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := new(Engine).Campaign(context.Background(), "SHA", 5, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("activated=%d detected=%d crashed=%d silent=%d",
				c.Activated, c.Detected, c.Crashed, c.Silent)
		}
	}
}

// BenchmarkCampaignParallelism measures the orchestration engine's
// wall-clock scaling on a fixed 16-run campaign: workers=1 is the
// serial baseline, higher counts show the worker-pool speedup (bounded
// by the host's core count — on a single-core box the times converge).
// The campaign output itself is identical at every worker count; see
// internal/experiments TestParallelMatchesSerial.
func BenchmarkCampaignParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := &Engine{Workers: workers}
			for i := 0; i < b.N; i++ {
				c, err := e.Campaign(context.Background(), "SHA", 16, 7)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && workers == 1 {
					b.Logf("activated=%d detected=%d crashed=%d silent=%d",
						c.Activated, c.Detected, c.Crashed, c.Silent)
				}
			}
		})
	}
}

// Per-workload simulator throughput benchmarks: how fast the simulator
// itself runs each kernel (useful when extending the substrate).
func BenchmarkSimulator(b *testing.B) {
	for _, name := range []string{"MatrixMul", "BFS", "SHA", "CUFFT"} {
		for _, cfg := range []struct {
			label string
			c     arch.Config
		}{
			{"base", arch.PaperConfig()},
			{"warped", arch.WarpedDMRConfig()},
		} {
			b.Run(name+"/"+cfg.label, func(b *testing.B) {
				bench, err := kernels.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				var cycles int64
				for i := 0; i < b.N; i++ {
					st, _, err := kernels.Attempt(context.Background(), cfg.c, bench, sim.LaunchOpts{}, true)
					if err != nil {
						b.Fatal(err)
					}
					cycles = st.Cycles
				}
				b.ReportMetric(float64(cycles), "simcycles")
			})
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out: lane
// shuffling, idle draining, and the mapping policy.
func BenchmarkAblation(b *testing.B) {
	mk := func(mut func(*arch.Config)) arch.Config {
		c := arch.WarpedDMRConfig()
		mut(&c)
		return c
	}
	cases := []struct {
		label string
		cfg   arch.Config
	}{
		{"full", mk(func(*arch.Config) {})},
		{"no-idle-drain", mk(func(c *arch.Config) { c.IdleDrain = false })},
		{"no-lane-shuffle", mk(func(c *arch.Config) { c.LaneShuffle = false })},
		{"linear-mapping", mk(func(c *arch.Config) { c.Mapping = arch.MapLinear })},
		{"cluster8", mk(func(c *arch.Config) { c.ClusterSize = 8 })},
	}
	for _, tc := range cases {
		b.Run(tc.label, func(b *testing.B) {
			bench, err := kernels.ByName("MatrixMul")
			if err != nil {
				b.Fatal(err)
			}
			var cov float64
			var cycles int64
			for i := 0; i < b.N; i++ {
				st, _, err := kernels.Attempt(context.Background(), tc.cfg, bench, sim.LaunchOpts{}, true)
				if err != nil {
					b.Fatal(err)
				}
				cov, cycles = st.Coverage(), st.Cycles
			}
			b.ReportMetric(100*cov, "%cov")
			b.ReportMetric(float64(cycles), "simcycles")
		})
	}
}

// BenchmarkBaselines times the five Fig. 10 approaches on one workload.
func BenchmarkBaselines(b *testing.B) {
	bench, err := kernels.ByName("Laplace")
	if err != nil {
		b.Fatal(err)
	}
	pcie := xfer.PCIe2x16()
	for _, a := range baselines.Approaches {
		b.Run(a.String(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				r, err := baselines.Evaluate(a, bench, arch.PaperConfig(), pcie)
				if err != nil {
					b.Fatal(err)
				}
				total = r.TotalS()
			}
			b.ReportMetric(total*1e3, "model-ms")
		})
	}
}
