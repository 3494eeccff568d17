// Command experiments regenerates the tables and figures of the
// Warped-DMR paper's evaluation section on the simulator.
//
// Independent simulator runs fan out across a worker pool; the output
// is byte-identical at any worker count. Ctrl-C cancels the remaining
// runs promptly.
//
// Usage:
//
//	experiments                # run everything (several minutes)
//	experiments -fig 9a        # one figure: 1, 5, 8a, 8b, 9a, 9b, 10, 11
//	experiments -fig table4
//	experiments -fig campaign  # seeded fault-injection campaign
//	experiments -fig pareto    # policy sweep: coverage vs overhead points
//	experiments -fig vulncheck # static unACE claims vs targeted fault injection
//	experiments -parallel 4    # cap the worker pool (default GOMAXPROCS)
//	experiments -csv           # emit CSV instead of aligned text
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"warped/internal/arch"
	"warped/internal/experiments"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/stats"
)

type figure struct {
	id    string
	run   func(ctx context.Context) (*stats.Table, error)
	chart func(ctx context.Context) (string, error) // optional ASCII chart form
}

func main() {
	var (
		figID     = flag.String("fig", "", "figure to regenerate (1, 5, 8a, 8b, 9a, 9b, 10, 11, table4, campaign, pareto, vulncheck, sampling, schedulers, latency); empty = all")
		csv       = flag.Bool("csv", false, "emit CSV")
		policies  = flag.String("policies", "", "semicolon-separated protection policies for -fig pareto (default full;warpsample:1/2;warpsample:1/4;activemask:16;off; docs/POLICIES.md)")
		trials    = flag.Int("trials", 5, "fault-injection trials per (benchmark, policy) cell for -fig pareto; 0 skips the campaign")
		seed      = flag.Int64("seed", 1, "fault-campaign RNG seed for -fig pareto")
		synth     = flag.Bool("synth", true, "append vulnerability-synthesized policy rows (full vs synthesized per benchmark, extras included) to -fig pareto")
		jsonlOut  = flag.String("jsonl", "", "also write the -fig pareto point set as JSON Lines to this file")
		chart     = flag.Bool("chart", false, "render ASCII charts where available")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent simulator runs (results are identical at any value)")
		progress  = flag.Bool("progress", false, "report per-figure run completion on stderr")
		lint      = flag.String("lint", "on", "statically verify the bundled kernels before running: on|off")
		metricsOn = flag.Bool("metrics", false, "print the campaign metrics snapshot to stderr after all figures (docs/OBSERVABILITY.md)")
		metricsTo = flag.String("metrics-out", "", "write the campaign metrics snapshot as JSON Lines to this file")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Long experiment runs should not discover a malformed kernel
	// halfway through; verify the whole suite up front.
	if *lint != "off" {
		if err := kernels.LintAll(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	var reg *metrics.Registry
	if *metricsOn || *metricsTo != "" || *pprofAddr != "" {
		reg = metrics.New()
	}
	if *pprofAddr != "" {
		addr, err := metrics.ServeDebug(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: debug server on http://%s/debug/pprof/\n", addr)
	}

	e := &experiments.Engine{Workers: *parallel, Metrics: reg}
	if *progress {
		e.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rexperiments: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	figures := []figure{
		{"1", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig1(ctx); return tbl(r, err) },
			func(ctx context.Context) (string, error) { r, err := e.Fig1(ctx); return chartOf(r, err) }},
		{"5", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig5(ctx); return tbl(r, err) },
			func(ctx context.Context) (string, error) { r, err := e.Fig5(ctx); return chartOf(r, err) }},
		{"8a", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig8a(ctx); return tbl(r, err) }, nil},
		{"8b", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig8b(ctx); return tbl(r, err) }, nil},
		{"9a", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig9a(ctx); return tbl(r, err) },
			func(ctx context.Context) (string, error) { r, err := e.Fig9a(ctx); return chartOf(r, err) }},
		{"9b", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig9b(ctx); return tbl(r, err) },
			func(ctx context.Context) (string, error) { r, err := e.Fig9b(ctx); return chartOf(r, err) }},
		{"10", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig10(ctx); return tbl(r, err) },
			func(ctx context.Context) (string, error) { r, err := e.Fig10(ctx); return chartOf(r, err) }},
		{"11", func(ctx context.Context) (*stats.Table, error) { r, err := e.Fig11(ctx); return tbl(r, err) },
			func(ctx context.Context) (string, error) { r, err := e.Fig11(ctx); return chartOf(r, err) }},
		{"table4", func(context.Context) (*stats.Table, error) { return table4() }, nil},
		{"campaign", func(ctx context.Context) (*stats.Table, error) {
			r, err := e.Campaign(ctx, "MatrixMul", 24, 1)
			if err != nil {
				return nil, err
			}
			return experiments.CampaignTable([]*experiments.CampaignResult{r}), nil
		}, nil},
		{"pareto", func(ctx context.Context) (*stats.Table, error) {
			spec, err := paretoSpec(*policies, *trials, *seed, *synth)
			if err != nil {
				return nil, err
			}
			r, err := e.Pareto(ctx, spec)
			if err != nil {
				return nil, err
			}
			if *jsonlOut != "" {
				if err := writeParetoJSONL(r, *jsonlOut); err != nil {
					return nil, err
				}
			}
			return r.Table(), nil
		}, nil},
		{"vulncheck", func(ctx context.Context) (*stats.Table, error) {
			// A falsified unACE claim is a hard failure: the error lists
			// every figure-visible injection and the run exits 1.
			r, err := e.VulnCheck(ctx)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		}, nil},
		{"sampling", func(ctx context.Context) (*stats.Table, error) { r, err := e.Sampling(ctx); return tbl(r, err) }, nil},
		{"schedulers", func(ctx context.Context) (*stats.Table, error) { r, err := e.SchedulerStudy(ctx); return tbl(r, err) }, nil},
		{"latency", func(ctx context.Context) (*stats.Table, error) {
			r, err := e.DetectionLatency(ctx, "MatrixMul", 12, 5)
			return tbl(r, err)
		}, nil},
	}

	ran := false
	for _, f := range figures {
		if *figID != "" && f.id != *figID {
			continue
		}
		ran = true
		if *chart && f.chart != nil {
			out, err := f.chart(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", f.id, err)
				os.Exit(1)
			}
			fmt.Println(out)
			continue
		}
		t, err := f.run(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", f.id, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.String())
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", *figID)
		os.Exit(2)
	}
	// Metrics go to stderr / a file, never stdout: figure output stays
	// byte-identical whether or not a registry is attached.
	if reg != nil {
		snap := reg.Snapshot()
		if *metricsOn {
			fmt.Fprintln(os.Stderr, "metrics:")
			fmt.Fprint(os.Stderr, snap.String())
		}
		if *metricsTo != "" {
			if err := snap.WriteFile(*metricsTo); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: -metrics-out: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// tabler is any experiment result that renders itself.
type tabler interface{ Table() *stats.Table }

func tbl(r tabler, err error) (*stats.Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Table(), nil
}

// charter is any experiment result with an ASCII chart rendition.
type charter interface{ Chart() string }

func chartOf(r charter, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Chart(), nil
}

// paretoSpec builds the policy-sweep spec from the -policies, -trials,
// -seed and -synth flags. Policies are semicolon-separated because
// kernel lists use commas (kernel:BFS,SHA).
func paretoSpec(policyList string, trials int, seed int64, synth bool) (experiments.ParetoSpec, error) {
	spec := experiments.ParetoSpec{Trials: trials, Seed: seed, Synth: synth}
	if policyList == "" {
		return spec, nil // Pareto fills in DefaultParetoPolicies
	}
	for _, s := range strings.Split(policyList, ";") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		p, err := arch.ParsePolicy(s)
		if err != nil {
			return spec, fmt.Errorf("-policies: %w", err)
		}
		spec.Policies = append(spec.Policies, p)
	}
	return spec, nil
}

// writeParetoJSONL writes the sweep's point set as JSON Lines.
func writeParetoJSONL(r *experiments.ParetoResult, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func table4() (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Table 4: workloads (scaled-down launch parameters)",
		Headers: []string{"benchmark", "category", "description"},
	}
	for _, b := range kernels.All() {
		t.AddRow(b.Name, b.Category, b.Desc)
	}
	return t, nil
}
