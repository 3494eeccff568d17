package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"warped"
	"warped/internal/metrics"
	"warped/internal/verify"
)

// vulnPC is one statically-unACE instruction in `warpsim vuln -json`
// output. As with lintRecord, the struct declaration order IS the
// output field order — CI archives these, so keep it stable.
type vulnPC struct {
	PC     int    `json:"pc"`
	Line   int    `json:"line"`
	Reason string `json:"reason"`
}

// vulnRecord is one kernel's vulnerability classification in
// `warpsim vuln -json` output. Field order is the output order.
type vulnRecord struct {
	File     string   `json:"file"`
	Kernel   string   `json:"kernel"`
	PCs      int      `json:"pcs"`
	Eligible int      `json:"eligible"`
	ACE      int      `json:"ace"`
	UnACE    int      `json:"unace"`
	Unknown  int      `json:"unknown"`
	Policy   string   `json:"policy"`
	UnACEPCs []vulnPC `json:"unace_pcs"`
}

// runVuln implements the `warpsim vuln` subcommand: run the static
// fault-vulnerability (ACE) analysis over kernel files (or, with no
// arguments, every bundled kernel), print each kernel's
// ACE/unACE/unknown classification and the protection policy
// synthesized from its unACE PCs, and with -json emit one record per
// kernel as a JSON array. The exit status is 0 when every kernel
// analyzes, 1 when a kernel is unanalyzable (its static verification
// fails, so liveness has no sound CFG to run on), 2 when an input
// cannot be read or assembled.
func runVuln(args []string) int {
	vulnFlags := flag.NewFlagSet("vuln", flag.ContinueOnError)
	vulnFlags.SetOutput(os.Stderr)
	jsonOut := vulnFlags.Bool("json", false, "emit per-kernel records as a JSON array instead of text")
	metricsTo := vulnFlags.String("metrics-out", "", "write a dmr.vuln.* metrics snapshot as JSON Lines to this file")
	vulnFlags.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: warpsim vuln [-json] [-metrics-out FILE] [file.asm ...]")
		vulnFlags.PrintDefaults()
	}
	if err := vulnFlags.Parse(args); err != nil {
		return 2
	}
	files := vulnFlags.Args()

	targets, status := loadTargets("warpsim vuln", files)

	var reg *warped.Metrics
	if *metricsTo != "" {
		reg = warped.NewMetrics()
	}
	vm := metrics.ForVuln(reg)

	records := []vulnRecord{} // non-nil so -json prints [] with no kernels
	for _, tg := range targets {
		r, err := verify.AnalyzeVuln(tg.prog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %s: %v\n", tg.file, tg.kernel, err)
			if status == 0 {
				status = 1
			}
			continue
		}
		policy := warped.SynthesizePolicy(tg.kernel, len(tg.prog.Instrs), r.UnACEPCs())
		vm.Analyses.Inc()
		vm.ACEPCs.Add(int64(r.ACE))
		vm.UnACEPCs.Add(int64(r.UnACE))
		vm.UnknownPCs.Add(int64(r.Unknown))
		if policy.Kind != warped.PolicyFull {
			vm.Synthesized.Inc()
		}
		rec := vulnRecord{
			File:     tg.file,
			Kernel:   tg.kernel,
			PCs:      len(r.PCs),
			Eligible: r.EligiblePCs,
			ACE:      r.ACE,
			UnACE:    r.UnACE,
			Unknown:  r.Unknown,
			Policy:   policy.String(),
			UnACEPCs: []vulnPC{},
		}
		for _, pv := range r.PCs {
			if pv.Class == verify.VulnUnACE && pv.Eligible {
				rec.UnACEPCs = append(rec.UnACEPCs, vulnPC{PC: pv.PC, Line: pv.Line, Reason: pv.Reason})
			}
		}
		records = append(records, rec)
		if !*jsonOut {
			fmt.Printf("%s: %s: %d PCs (%d eligible): %d ACE, %d unACE, %d unknown; policy %s\n",
				tg.file, tg.kernel, rec.PCs, rec.Eligible, rec.ACE, rec.UnACE, rec.Unknown, rec.Policy)
			for _, pv := range rec.UnACEPCs {
				fmt.Printf("  pc %d (line %d): %s\n", pv.PC, pv.Line, pv.Reason)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "warpsim vuln: %v\n", err)
			return 2
		}
	}
	if *metricsTo != "" {
		if err := reg.Snapshot().WriteFile(*metricsTo); err != nil {
			fmt.Fprintf(os.Stderr, "warpsim vuln: %v\n", err)
			return 2
		}
	}
	return status
}
