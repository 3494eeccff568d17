// Command faultsim runs fault-injection campaigns against the
// benchmark suite under full Warped-DMR: each trial plants one random
// stuck-at fault in an execution lane and reports whether a DMR
// comparator caught it, whether it crashed the kernel (a detectable
// unrecoverable error), or whether it slipped through silently.
//
// Usage:
//
//	faultsim -bench MatrixMul -n 50
//	faultsim -all -n 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"warped"
	"warped/internal/core"
	"warped/internal/experiments"
	"warped/internal/fault"
	"warped/internal/metrics"
)

func main() {
	var (
		benchName = flag.String("bench", "", "benchmark to inject into")
		all       = flag.Bool("all", false, "run a campaign on every benchmark")
		n         = flag.Int("n", 20, "trials per benchmark")
		seed      = flag.Int64("seed", 1, "campaign RNG seed")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for campaign trials (results are identical at any value)")
		policyStr = flag.String("policy", "full", "selective-protection policy for the campaign machine (docs/POLICIES.md)")
		diagnose  = flag.Bool("diagnose", false, "plant one stuck-at fault and isolate the faulty lane")
		metricsOn = flag.Bool("metrics", false, "print the campaign metrics snapshot to stderr (docs/OBSERVABILITY.md)")
		metricsTo = flag.String("metrics-out", "", "write the campaign metrics snapshot as JSON Lines to this file")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reg *metrics.Registry
	if *metricsOn || *metricsTo != "" || *pprofAddr != "" {
		reg = metrics.New()
	}
	if *pprofAddr != "" {
		addr, err := metrics.ServeDebug(*pprofAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultsim: -pprof: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "faultsim: debug server on http://%s/debug/pprof/\n", addr)
	}

	if *diagnose {
		runDiagnose(ctx, *benchName, *seed)
		return
	}

	var names []string
	switch {
	case *all:
		names = warped.BenchmarkNames()
	case *benchName != "":
		names = []string{*benchName}
	default:
		fmt.Fprintln(os.Stderr, "faultsim: -bench or -all is required")
		flag.Usage()
		os.Exit(2)
	}

	policy, err := warped.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faultsim: -policy: %v\n", err)
		os.Exit(2)
	}
	cfg := warped.WarpedDMRConfig()
	cfg.Policy = policy

	e := &warped.Engine{Workers: *parallel, Metrics: reg}
	var results []*warped.CampaignResult
	for _, name := range names {
		c, err := e.CampaignConfig(ctx, name, cfg, *n, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faultsim: %s: %v\n", name, err)
			os.Exit(1)
		}
		results = append(results, c)
	}
	fmt.Println(experiments.CampaignTable(results).String())

	// Metrics go to stderr / a file, never stdout: campaign output stays
	// byte-identical whether or not a registry is attached.
	if reg != nil {
		snap := reg.Snapshot()
		if *metricsOn {
			fmt.Fprintln(os.Stderr, "metrics:")
			fmt.Fprint(os.Stderr, snap.String())
		}
		if *metricsTo != "" {
			if err := snap.WriteFile(*metricsTo); err != nil {
				fmt.Fprintf(os.Stderr, "faultsim: -metrics-out: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// runDiagnose demonstrates the paper's §3.4 claim: Warped-DMR detects
// at single-SP granularity, so a permanently faulty lane can be
// identified (and then re-routed around) instead of disabling the SM.
func runDiagnose(ctx context.Context, benchName string, seed int64) {
	if benchName == "" {
		benchName = "SHA"
	}
	// Plant a known stuck-at fault on a busy SM.
	f := &warped.Fault{Kind: fault.StuckAt, SM: 0, Lane: int(seed) % 32,
		Unit: 0 /* SP */, Bit: uint(seed) % 8, StuckVal: 1}
	fmt.Printf("injected: %s\n", f)
	d := core.NewDiagnoser()
	res, err := (&warped.Runner{}).Run(ctx, benchName,
		warped.WithConfig(warped.WarpedDMRConfig()),
		warped.WithFaults(fault.NewInjector(f), d.Observe))
	if err != nil {
		fmt.Printf("kernel aborted (DUE): %v\n", err)
	} else {
		fmt.Printf("run finished: %d corruptions, %d detections\n",
			res.FaultsActivated, res.FaultsDetected)
	}
	fmt.Println(d.Report())
	if sm, lane, ok := d.Suspect(); ok {
		if sm == f.SM && lane == f.Lane {
			fmt.Println("diagnosis CORRECT: matches the injected fault")
		} else {
			fmt.Printf("diagnosis MISMATCH: injected (SM %d, lane %d)\n", f.SM, f.Lane)
		}
	}
}
