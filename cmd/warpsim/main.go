// Command warpsim runs one of the paper's benchmarks on the simulated
// GPU under a chosen Warped-DMR configuration and prints its
// statistics: cycles, IPC, utilization and instruction-type breakdowns,
// DMR coverage, overhead counters, and a power estimate.
//
// Usage:
//
//	warpsim -bench MatrixMul -dmr full -mapping rr -replayq 10
//	warpsim -list
//	warpsim lint             # statically verify every bundled kernel
//	warpsim lint my.asm      # statically verify kernel files
//	warpsim lint -json       # findings as a JSON array for CI archiving
//	warpsim vuln             # ACE/unACE fault-vulnerability analysis
//	warpsim vuln -json       # per-kernel records as a JSON array
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"warped"
	"warped/internal/arch"
	"warped/internal/asm"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/metrics"
	"warped/internal/stats"
	"warped/internal/trace"
	"warped/internal/verify"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "lint" {
		os.Exit(runLint(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "vuln" {
		os.Exit(runVuln(os.Args[2:]))
	}
	var (
		benchName = flag.String("bench", "", "benchmark to run (see -list)")
		kernPath  = flag.String("kernel", "", "run a custom .asm kernel file instead of a benchmark")
		grid      = flag.String("grid", "1x1", "custom kernel grid dims, e.g. 8x1")
		block     = flag.String("block", "32x1", "custom kernel block dims, e.g. 128x1")
		shared    = flag.Int("shared", 0, "custom kernel shared memory bytes per block")
		params    = flag.String("params", "", "comma-separated uint32 kernel parameters")
		traceOut  = flag.String("trace", "", "write a per-instruction CSV trace of a custom kernel to this file")
		list      = flag.Bool("list", false, "list available benchmarks")
		dmrMode   = flag.String("dmr", "off", "DMR mode: off|intra|inter|full|dmtr")
		mapping   = flag.String("mapping", "linear", "thread-core mapping: linear|rr")
		replayQ   = flag.Int("replayq", 10, "ReplayQ entries per SM")
		cluster   = flag.Int("cluster", 4, "SIMT cluster size (4 or 8)")
		sms       = flag.Int("sms", 30, "number of SMs")
		policyStr = flag.String("policy", "full", "selective-protection policy: full|off|kernel:NAME[,..]|warpsample:1/N|activemask:MIN|pcset:LO-HI[,..]|epoch:ON/PERIOD (docs/POLICIES.md)")
		noShuffle = flag.Bool("no-lane-shuffle", false, "disable lane shuffling on replays")
		noDrain   = flag.Bool("no-idle-drain", false, "disable ReplayQ draining on idle units")
		lintMode  = flag.String("lint", "on", "statically verify kernels before running: on|off")
		traceFmt  = flag.String("trace-format", "csv", "trace file format: csv|chrome|jsonl")
		metricsOn = flag.Bool("metrics", false, "print the metrics snapshot after the run (docs/OBSERVABILITY.md)")
		metricsTo = flag.String("metrics-out", "", "write the metrics snapshot as JSON Lines to this file")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lint, err := parseLintMode(*lintMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: %v\n", err)
		os.Exit(2)
	}

	if *list {
		fmt.Println("Table 4 workloads:")
		for _, b := range warped.Benchmarks() {
			fmt.Printf("  %-12s %-28s %s\n", b.Name, b.Category, b.Desc)
		}
		fmt.Println("Extra reference workloads:")
		for _, b := range warped.ExtraBenchmarks() {
			fmt.Printf("  %-12s %-28s %s\n", b.Name, b.Category, b.Desc)
		}
		return
	}
	if *benchName == "" && *kernPath == "" {
		fmt.Fprintln(os.Stderr, "warpsim: -bench or -kernel is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	cfg := warped.PaperConfig()
	cfg.NumSMs = *sms
	cfg.ClusterSize = *cluster
	cfg.ReplayQSize = *replayQ
	cfg.LaneShuffle = !*noShuffle
	cfg.IdleDrain = !*noDrain
	if cfg.DMR, err = arch.ParseDMR(*dmrMode); err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: -dmr: %v\n", err)
		os.Exit(2)
	}
	if cfg.Mapping, err = arch.ParseMapping(*mapping); err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: -mapping: %v\n", err)
		os.Exit(2)
	}
	cfg.Policy, err = warped.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: -policy: %v\n", err)
		os.Exit(2)
	}

	reg := newRegistry(*metricsOn, *metricsTo, *pprofAddr)
	serveDebug(reg, *pprofAddr)

	if *kernPath != "" {
		if err := runCustom(ctx, cfg, *kernPath, *grid, *block, *shared, *params, *traceOut, *traceFmt, lint, reg); err != nil {
			fmt.Fprintf(os.Stderr, "warpsim: %v\n", err)
			os.Exit(1)
		}
		if err := emitMetrics(reg, *metricsOn, *metricsTo); err != nil {
			fmt.Fprintf(os.Stderr, "warpsim: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if lint {
		if err := kernels.LintAll(); err != nil {
			fmt.Fprintf(os.Stderr, "warpsim: %v\n", err)
			os.Exit(1)
		}
	}
	res, err := (&warped.Runner{Metrics: reg}).Run(ctx, *benchName, warped.WithConfig(cfg))
	if err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: %v\n", err)
		os.Exit(1)
	}
	printResult(res, cfg)
	if err := emitMetrics(reg, *metricsOn, *metricsTo); err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: %v\n", err)
		os.Exit(1)
	}
}

// newRegistry builds a metrics registry when any observability flag
// asks for one; otherwise the run stays unmetered (nil registry).
func newRegistry(print bool, out, pprofAddr string) *warped.Metrics {
	if !print && out == "" && pprofAddr == "" {
		return nil
	}
	return warped.NewMetrics()
}

// serveDebug mounts /debug/pprof, /debug/vars and /debug/metrics on
// addr in the background. Failures to bind are fatal: asking for a
// debug server and silently not getting one wastes a profiling session.
func serveDebug(reg *warped.Metrics, addr string) {
	if addr == "" {
		return
	}
	bound, err := metrics.ServeDebug(addr, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "warpsim: -pprof: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "warpsim: debug server on http://%s/debug/pprof/\n", bound)
}

// emitMetrics renders the post-run snapshot: human-readable to stdout
// with -metrics, JSON Lines to a file with -metrics-out.
func emitMetrics(reg *warped.Metrics, print bool, out string) error {
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	if print {
		fmt.Println("\nmetrics:")
		fmt.Print(snap.String())
	}
	if out != "" {
		return snap.WriteFile(out)
	}
	return nil
}

// runCustom assembles a user-provided kernel file and runs it as a
// one-launch workload through kernels.Attempt, so a launch failure
// names the file. With lint enabled, error-severity verifier findings
// abort the run and warnings print to stderr; -lint=off skips
// verification entirely.
func runCustom(ctx context.Context, cfg warped.Config, path, grid, block string, shared int, paramList, traceOut, traceFmt string, lint bool, reg *warped.Metrics) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := warped.AssembleNamed(path, string(src))
	if err != nil {
		return err
	}
	gx, gy, err := parseDims(grid)
	if err != nil {
		return fmt.Errorf("bad -grid: %w", err)
	}
	bx, by, err := parseDims(block)
	if err != nil {
		return fmt.Errorf("bad -block: %w", err)
	}
	if lint {
		// Verify against the actual launch geometry: that arms the
		// tid-aware shared-bounds/race rules even when the kernel
		// declares no .block of its own.
		fs := warped.VerifyWith(prog, warped.VerifyOptions{BlockDimX: bx, BlockDimY: by})
		if fs.Errors() > 0 {
			fmt.Fprint(os.Stderr, fs.Dump(path))
			return fmt.Errorf("kernel %q failed static verification with %d error(s) (use -lint=off to run anyway)",
				prog.Name, fs.Errors())
		}
		fmt.Fprint(os.Stderr, fs.Dump(path)) // surviving findings are warnings
	}
	var words []uint32
	if paramList != "" {
		for _, f := range strings.Split(paramList, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 0, 32)
			if err != nil {
				return fmt.Errorf("bad -params entry %q: %w", f, err)
			}
			words = append(words, uint32(v))
		}
	}
	opts := warped.LaunchOpts{Metrics: reg}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		sink, finish, err := traceWriter(f, traceFmt)
		if err != nil {
			return err
		}
		opts.Trace = sink
		defer func() {
			if err := finish(); err != nil {
				fmt.Fprintf(os.Stderr, "warpsim: trace write: %v\n", err)
			}
		}()
	}
	b := kernels.Inline(path, prog, warped.Kernel{GridX: gx, GridY: gy, BlockX: bx, BlockY: by,
		SharedBytes: shared, Params: warped.NewParams(words...)})
	st, _, err := kernels.Attempt(ctx, cfg, b, opts, false)
	if err != nil {
		return err
	}
	printResult(&warped.Result{Stats: st, Benchmark: prog.Name + " (custom kernel, no host validation)"}, cfg)
	return nil
}

// traceWriter builds the trace sink selected by -trace-format plus a
// finish function reporting (and, for chrome, terminating) the output.
func traceWriter(f *os.File, format string) (warped.TraceSink, func() error, error) {
	switch strings.ToLower(format) {
	case "csv":
		w := trace.NewCSVWriter(f)
		return w, func() error { return w.Err }, nil
	case "chrome":
		w := trace.NewChromeWriter(f)
		return w, w.Close, nil
	case "jsonl":
		w := trace.NewJSONLWriter(f)
		return w, w.Close, nil
	}
	return nil, nil, fmt.Errorf("unknown -trace-format %q (want csv, chrome or jsonl)", format)
}

func parseDims(s string) (int, int, error) {
	parts := strings.SplitN(strings.ToLower(s), "x", 2)
	x, err := strconv.Atoi(parts[0])
	if err != nil || x <= 0 {
		return 0, 0, fmt.Errorf("bad dimension %q", s)
	}
	y := 1
	if len(parts) == 2 {
		y, err = strconv.Atoi(parts[1])
		if err != nil || y <= 0 {
			return 0, 0, fmt.Errorf("bad dimension %q", s)
		}
	}
	return x, y, nil
}

func printResult(res *warped.Result, cfg warped.Config) {
	st := res.Stats
	label := res.Benchmark
	if !strings.Contains(label, "custom kernel") {
		label += " (validated against host reference)"
	}
	fmt.Printf("benchmark          %s\n", label)
	fmt.Printf("machine            %d SMs, %d-lane clusters, mapping=%s, DMR=%s, ReplayQ=%d\n",
		cfg.NumSMs, cfg.ClusterSize, cfg.Mapping, cfg.DMR, cfg.ReplayQSize)
	fmt.Printf("kernel cycles      %d (%.3f ms at %.2f ns/cycle)\n",
		st.Cycles, float64(st.Cycles)*cfg.ClockNS*1e-6, cfg.ClockNS)
	fmt.Printf("warp instructions  %d (IPC %.2f)\n", st.WarpInstrs, st.IPC())
	fmt.Printf("thread instrs      %d\n", st.ThreadInstrs)

	af := st.ActiveFractions()
	var ab []string
	for i, b := range stats.ActiveBuckets {
		ab = append(ab, fmt.Sprintf("%s:%.1f%%", b, 100*af[i]))
	}
	fmt.Printf("active threads     %s\n", strings.Join(ab, "  "))
	tf := st.TypeFractions()
	fmt.Printf("instruction types  SP:%.1f%%  SFU:%.1f%%  LD/ST:%.1f%%\n",
		100*tf[0], 100*tf[1], 100*tf[2])

	if cfg.DMR != warped.DMROff {
		fmt.Printf("DMR coverage       %.2f%% (intra %d + inter %d of %d eligible)\n",
			100*st.Coverage(), st.VerifiedIntra, st.VerifiedInter, st.EligibleTI)
		fmt.Printf("DMR overhead       %d full-queue stalls, %d RAW stalls, %d co-executions, %d idle drains\n",
			st.StallReplayQFull, st.StallRAWUnverif, st.ReplayCoexec, st.ReplayIdleDrain)
		// Only selective policies print a policy line: the default Full
		// output stays byte-identical to the pre-policy CLI (a CI check
		// compares it against archived output).
		if cfg.Policy.Kind != warped.PolicyFull {
			fmt.Printf("DMR policy         %s (protected %d, skipped %d of %d eligible)\n",
				cfg.Policy, st.ProtectedTI, st.SkippedTI, st.EligibleTI)
		}
	}
	if st.L1Hits+st.L1Misses > 0 {
		l1 := float64(st.L1Hits) / float64(st.L1Hits+st.L1Misses)
		l2 := 0.0
		if st.L2Hits+st.L2Misses > 0 {
			l2 = float64(st.L2Hits) / float64(st.L2Hits+st.L2Misses)
		}
		fmt.Printf("caches             L1 %.1f%% hit (%d/%d), L2 %.1f%% hit (%d/%d)\n",
			100*l1, st.L1Hits, st.L1Hits+st.L1Misses, 100*l2, st.L2Hits, st.L2Hits+st.L2Misses)
	}
	rep := warped.EstimatePower(cfg, st)
	fmt.Printf("power estimate     %.1f W total (%.1f W dynamic), %.4f J\n",
		rep.TotalW, rep.RuntimeW, rep.EnergyJ)
}

// parseLintMode maps the -lint flag value to a boolean.
func parseLintMode(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("unknown -lint %q (want on or off)", s)
}

// lintRecord is one verifier finding in `warpsim lint -json` output.
// The struct declaration order IS the output field order — CI archives
// these, so keep it stable.
type lintRecord struct {
	File     string `json:"file"`
	Kernel   string `json:"kernel"`
	Line     int    `json:"line"`
	Severity string `json:"severity"`
	Rule     string `json:"rule"`
	Message  string `json:"message"`
}

// runLint implements the `warpsim lint` subcommand: statically verify
// kernel files (or, with no arguments, every bundled kernel) and print
// findings in the greppable file:line: severity: rule: message format,
// or as a JSON array (one finding per element) with -json. The exit
// status is 0 only when no finding of any severity remains, 2 when an
// input cannot be read or assembled.
func runLint(args []string) int {
	lintFlags := flag.NewFlagSet("lint", flag.ContinueOnError)
	lintFlags.SetOutput(os.Stderr)
	jsonOut := lintFlags.Bool("json", false, "emit findings as a JSON array instead of text")
	lintFlags.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: warpsim lint [-json] [file.asm ...]")
		lintFlags.PrintDefaults()
	}
	if err := lintFlags.Parse(args); err != nil {
		return 2
	}
	files := lintFlags.Args()

	targets, status := loadTargets("warpsim lint", files)

	records := []lintRecord{} // non-nil so -json prints [] when clean
	for _, tg := range targets {
		fs := verify.Check(tg.prog)
		for _, f := range fs {
			records = append(records, lintRecord{
				File:     tg.file,
				Kernel:   tg.kernel,
				Line:     f.Line,
				Severity: f.Sev.String(),
				Rule:     f.Rule,
				Message:  f.Msg,
			})
		}
		if len(fs) > 0 {
			if status == 0 {
				status = 1
			}
			if !*jsonOut {
				fmt.Print(fs.Dump(tg.file))
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "warpsim lint: %v\n", err)
			return 2
		}
	} else if status == 0 {
		if len(files) == 0 {
			fmt.Printf("warpsim lint: %d bundled kernels verify clean\n", len(targets))
		} else {
			fmt.Printf("warpsim lint: %d kernel(s) verify clean\n", len(targets))
		}
	}
	return status
}

// target is one kernel to check: the file it came from, its name and
// its program.
type target struct {
	file   string
	kernel string
	prog   *isa.Program
}

// loadTargets returns the kernels of files, or with no files every
// bundled kernel, in file then kernel-name order. Each input that
// cannot be read or assembled is reported on stderr, a read error
// prefixed with cmd, and makes the status 2; otherwise it is 0.
func loadTargets(cmd string, files []string) ([]target, int) {
	var targets []target
	status := 0
	if len(files) == 0 {
		for _, s := range kernels.Sources() {
			p, err := s.Program()
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", s.File, err)
				status = 2
				continue
			}
			targets = append(targets, target{s.File, s.Name, p})
		}
		return targets, status
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
			status = 2
			continue
		}
		progs, err := asm.AssembleModule(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			status = 2
			continue
		}
		names := make([]string, 0, len(progs))
		for name := range progs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			targets = append(targets, target{path, name, progs[name]})
		}
	}
	return targets, status
}
