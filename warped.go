// Package warped is the public API of the Warped-DMR reproduction: a
// cycle-level SIMT GPU simulator with the paper's opportunistic
// dual-modular-redundancy error detection (MICRO-45, 2012) layered on
// its issue stage, the 11 workloads of the paper's Table 4, the
// compared software/temporal baselines, and harnesses that regenerate
// every figure of the paper's evaluation.
//
// Quick start:
//
//	r := &warped.Runner{}
//	res, err := r.Run(ctx, "MatrixMul")
//	fmt.Printf("coverage %.1f%%, %d cycles\n", 100*res.Coverage(), res.Cycles)
//
// Runner is the context-aware entry point: functional options select
// the configuration, fault injection, retry policy, tracing, and
// metrics, and RunMany fans independent workloads out across a worker
// pool.
//
// Operational telemetry is opt-in and never perturbs the deterministic
// simulation output: attach a Metrics registry (WithMetrics or
// Runner.Metrics), stream instruction traces (WithTrace with the CSV,
// JSONL or Chrome writers), or serve pprof/expvar with MetricsHandler.
// docs/OBSERVABILITY.md documents the full metric contract.
//
// Custom kernels are written in a PTX-like assembly (see package
// internal/asm for the syntax) and launched on a GPU instance:
//
//	prog, _ := warped.Assemble(src)
//	gpu, _ := warped.NewGPU(cfg)
//	st, _ := gpu.Launch(&warped.Kernel{Prog: prog, GridX: 4, GridY: 1,
//	    BlockX: 128, BlockY: 1, Params: warped.NewParams(ptr)}, warped.LaunchOpts{})
package warped

import (
	"context"
	"io"
	"net/http"
	"time"

	"warped/internal/arch"
	"warped/internal/asm"
	"warped/internal/baselines"
	"warped/internal/core"
	"warped/internal/experiments"
	"warped/internal/fault"
	"warped/internal/isa"
	"warped/internal/kernels"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/power"
	"warped/internal/runner"
	"warped/internal/sim"
	"warped/internal/stats"
	"warped/internal/trace"
	"warped/internal/verify"
	"warped/internal/xfer"
)

// Re-exported configuration types and constructors.
type (
	// Config is the simulated machine + Warped-DMR configuration.
	Config = arch.Config
	// MappingPolicy selects the thread-to-lane mapping.
	MappingPolicy = arch.MappingPolicy
	// DMRMode selects which DMR mechanisms are active.
	DMRMode = arch.DMRMode
	// Policy selects which eligible instructions the DMR engine
	// verifies (selective protection; see docs/POLICIES.md).
	Policy = arch.Policy
	// PolicyKind is the selective-protection policy family.
	PolicyKind = arch.PolicyKind
)

// Mapping policies and DMR modes.
const (
	MapLinear    = arch.MapLinear
	MapClusterRR = arch.MapClusterRR

	DMROff         = arch.DMROff
	DMRIntra       = arch.DMRIntra
	DMRInter       = arch.DMRInter
	DMRFull        = arch.DMRFull
	DMRTemporalAll = arch.DMRTemporalAll

	PolicyFull       = arch.PolicyFull
	PolicyOff        = arch.PolicyOff
	PolicyPerKernel  = arch.PolicyPerKernel
	PolicyWarpSample = arch.PolicyWarpSample
	PolicyActiveMask = arch.PolicyActiveMask
	PolicyPCSet      = arch.PolicyPCSet
	PolicyEpoch      = arch.PolicyEpoch
)

// ParsePolicy parses the protection-policy spelling the CLIs and the
// warpd job spec use (full, off, kernel:NAME[,..], warpsample:1/N,
// activemask:MIN, pcset:LO-HI[,..], epoch:ON/PERIOD). See
// docs/POLICIES.md.
func ParsePolicy(s string) (Policy, error) { return arch.ParsePolicy(s) }

// PaperConfig returns the baseline machine of the paper's Table 3
// (30 SMs, 32-wide SIMT, 4-lane clusters) with DMR disabled.
func PaperConfig() Config { return arch.PaperConfig() }

// WarpedDMRConfig returns the paper's recommended configuration: full
// Warped-DMR with a 10-entry ReplayQ and round-robin cluster mapping.
func WarpedDMRConfig() Config { return arch.WarpedDMRConfig() }

// Simulator types.
type (
	// GPU is a simulated chip; launch kernels on it.
	GPU = sim.GPU
	// Kernel is one launchable grid.
	Kernel = sim.Kernel
	// LaunchOpts are per-launch options (fault hooks, RAW tracking).
	LaunchOpts = sim.LaunchOpts
	// Stats is the measurement set produced by a run.
	Stats = stats.Stats
	// Program is an assembled kernel.
	Program = isa.Program
	// ErrorEvent is a detected original/redundant mismatch.
	ErrorEvent = core.ErrorEvent
	// Fault is an injectable hardware defect.
	Fault = fault.Fault
	// Injector applies faults during simulation.
	Injector = fault.Injector
	// Benchmark is one of the paper's Table 4 workloads.
	Benchmark = kernels.Benchmark
	// PowerParams are the analytical power-model constants.
	PowerParams = power.Params
	// PowerReport is a power/energy estimate for a run.
	PowerReport = power.Report
	// TransferModel is the PCIe transfer-time model.
	TransferModel = xfer.Model
	// Approach is one of the Fig. 10 error-detection schemes.
	Approach = baselines.Approach
	// Diagnoser attributes detected mismatches to a physical lane
	// (the paper's SP-granularity isolation, §3.4).
	Diagnoser = core.Diagnoser
	// TraceEvent is one issued warp instruction (LaunchOpts.Trace).
	TraceEvent = trace.Event
	// TraceSink consumes trace events.
	TraceSink = trace.Sink
	// TraceRing buffers the last N trace events.
	TraceRing = trace.Ring
)

// NewTraceRing builds a ring buffer trace sink holding n events.
func NewTraceRing(n int) *TraceRing { return trace.NewRing(n) }

// Observability types, re-exported from internal/metrics and
// internal/trace. See docs/OBSERVABILITY.md for the metric contract.
type (
	// Metrics is a low-overhead counter/gauge/histogram registry. Attach
	// one to a run with WithMetrics (or Runner.Metrics) and read it back
	// with Snapshot. Safe for concurrent use; a nil *Metrics is valid
	// and costs one branch per instrument bump.
	Metrics = metrics.Registry
	// MetricsSnapshot is a point-in-time copy of a registry's values,
	// renderable as text (String) or JSON Lines (WriteJSONL).
	MetricsSnapshot = metrics.Snapshot
	// ChromeTraceWriter streams trace events in the Chrome trace-event
	// JSON format for chrome://tracing / ui.perfetto.dev. Close it.
	ChromeTraceWriter = trace.ChromeWriter
	// JSONLTraceWriter streams trace events as JSON Lines.
	JSONLTraceWriter = trace.JSONLWriter
	// CSVTraceWriter streams trace events as CSV rows.
	CSVTraceWriter = trace.CSVWriter
)

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return metrics.New() }

// NewChromeTraceWriter builds a Chrome trace-event sink writing to w.
// Call Close after the run to terminate the JSON array.
func NewChromeTraceWriter(w io.Writer) *ChromeTraceWriter { return trace.NewChromeWriter(w) }

// NewJSONLTraceWriter builds a JSON Lines trace sink writing to w.
func NewJSONLTraceWriter(w io.Writer) *JSONLTraceWriter { return trace.NewJSONLWriter(w) }

// NewCSVTraceWriter builds a CSV trace sink writing to w.
func NewCSVTraceWriter(w io.Writer) *CSVTraceWriter { return trace.NewCSVWriter(w) }

// MetricsHandler returns an http.Handler exposing reg as /debug/metrics
// (JSONL snapshot) alongside /debug/pprof/* and /debug/vars — the
// operational surface the CLIs mount behind their -pprof flag.
func MetricsHandler(reg *Metrics) http.Handler { return metrics.Handler(reg) }

// NewDiagnoser builds a fault-lane diagnoser; pass its Observe method
// to WithFaults as the error callback.
func NewDiagnoser() *Diagnoser { return core.NewDiagnoser() }

// NewGPU builds a simulated GPU with the default 64 MB global memory.
func NewGPU(cfg Config) (*GPU, error) { return sim.New(cfg, 0) }

// NewGPUWithMemory builds a simulated GPU with a custom memory size.
func NewGPUWithMemory(cfg Config, memBytes int) (*GPU, error) { return sim.New(cfg, memBytes) }

// Assemble compiles PTX-like assembly source into a kernel program.
func Assemble(src string) (*Program, error) { return asm.Assemble(src) }

// AssembleNamed is Assemble with a caller-supplied source name (a file
// path, a job ID, ...) prefixed to every assembly diagnostic, so an
// error can be traced to the artifact that carried the bad kernel.
func AssembleNamed(name, src string) (*Program, error) { return asm.AssembleNamed(name, src) }

// Static verification (lint) types, re-exported from internal/verify.
type (
	// Finding is one static-verifier diagnostic.
	Finding = verify.Finding
	// Findings is an ordered list of verifier diagnostics.
	Findings = verify.Findings
	// VerifyOptions tunes the static verifier.
	VerifyOptions = verify.Options
	// VerifyError wraps the findings that failed AssembleVerified.
	VerifyError = asm.VerifyError
)

// AssembleVerified compiles assembly source and then runs the static
// verifier over the program, rejecting kernels with error-severity
// findings (use-before-def, divergent barriers, broken reconvergence,
// misaligned accesses, ...). The program is returned even on
// verification failure so callers can inspect it.
func AssembleVerified(src string) (*Program, error) { return asm.AssembleVerified(src) }

// AssembleVerifiedNamed is AssembleVerified with a caller-supplied
// source name prefixed to every assembly and verification diagnostic.
func AssembleVerifiedNamed(name, src string) (*Program, error) {
	return asm.AssembleVerifiedNamed(name, src)
}

// Verify runs the static kernel verifier over an assembled program and
// returns every finding, ordered by source line.
func Verify(p *Program) Findings { return verify.Check(p) }

// VerifyWith runs the static verifier with explicit options.
func VerifyWith(p *Program, opt VerifyOptions) Findings { return verify.CheckWith(p, opt) }

// Fault-vulnerability analysis types, re-exported from internal/verify.
// See docs/STATIC_ANALYSIS.md, "The vulnerability domain".
type (
	// VulnReport classifies every PC of a kernel as ACE, unACE or
	// unknown under the execution-unit fault model.
	VulnReport = verify.VulnReport
	// PCVuln is one instruction's vulnerability classification.
	PCVuln = verify.PCVuln
	// VulnClass is the ACE/unACE/unknown classification.
	VulnClass = verify.VulnClass
)

// Vulnerability classes.
const (
	VulnUnknown = verify.VulnUnknown
	VulnACE     = verify.VulnACE
	VulnUnACE   = verify.VulnUnACE
)

// AnalyzeVulnerability runs the static fault-vulnerability (ACE)
// analysis over an assembled kernel: a backward liveness dataflow with
// masking-aware transfers that proves, per instruction, whether a fault
// in its computed result can ever reach architecturally visible state.
// Instructions proven unACE are safe to exclude from DMR protection;
// feed the report's UnACEPCs to SynthesizePolicy for that.
func AnalyzeVulnerability(p *Program) (*VulnReport, error) { return verify.AnalyzeVuln(p) }

// SynthesizePolicy converts a kernel's statically-unACE PC list into
// the cheapest protection policy that still verifies every ACE
// instruction (see docs/POLICIES.md, "Synthesized policies"). n is the
// kernel's instruction count.
func SynthesizePolicy(kernel string, n int, unACE []int) Policy {
	return arch.SynthesizePolicy(kernel, n, unACE)
}

// NewParams builds a kernel parameter block from 32-bit words.
func NewParams(words ...uint32) *mem.Params { return mem.NewParams(words...) }

// Benchmarks returns the paper's 11 workloads in Figure-1 order.
func Benchmarks() []*Benchmark { return kernels.All() }

// ExtraBenchmarks returns the non-paper reference workloads
// (reduction, transpose, histogram). They run like Table 4 workloads
// but are excluded from the paper's experiments.
func ExtraBenchmarks() []*Benchmark { return kernels.Extras() }

// BenchmarkNames returns the workload names in Figure-1 order.
func BenchmarkNames() []string { return kernels.Names() }

// Result is the outcome of running one benchmark.
type Result struct {
	*Stats
	Benchmark string

	// Attempts is the number of workload executions behind this result:
	// 1 unless WithRetry re-ran the workload after a detection.
	Attempts int
	// Recovered reports that at least one attempt was discarded after a
	// comparator detection (or crash) and a later attempt ran clean.
	Recovered bool
	// Detections counts comparator mismatches across all attempts.
	Detections int
}

// Runner executes Table 4 workloads through a single context-aware
// entry point. The zero value is ready to use; Parallel and Progress
// only affect RunMany.
type Runner struct {
	// Parallel is the RunMany worker-pool size; <= 0 means GOMAXPROCS.
	Parallel int
	// Progress, when non-nil, is called after each RunMany workload
	// completes with (done, total) counts.
	Progress func(done, total int)
	// Metrics, when non-nil, receives operational telemetry from every
	// Run and RunMany call: simulator/DMR counters of each launch, the
	// run.latency_ms histogram, and (for RunMany) worker-pool telemetry
	// from internal/runner. A per-call WithMetrics overrides it. See
	// docs/OBSERVABILITY.md for the metric contract.
	Metrics *Metrics
}

// runSpec is the resolved option set of one Run call.
type runSpec struct {
	cfg      Config
	opts     LaunchOpts
	attempts int
	validate *bool // nil: validate only when no fault injector is set
}

// RunOption configures one Runner.Run invocation.
type RunOption func(*runSpec)

// WithConfig selects the simulated machine + DMR configuration. The
// default is WarpedDMRConfig(), the paper's recommended machine.
func WithConfig(cfg Config) RunOption { return func(s *runSpec) { s.cfg = cfg } }

// WithPolicy selects the selective-protection policy for the run
// without replacing the rest of the configuration (compose it with
// WithConfig in either order; the last write to the policy wins). The
// zero Policy is PolicyFull, the paper's always-on protection. See
// docs/POLICIES.md for the policy contract.
func WithPolicy(p Policy) RunOption { return func(s *runSpec) { s.cfg.Policy = p } }

// WithFaults injects faults during the run; each detected mismatch is
// reported through onError (which may be nil). Fault-injected runs skip
// output validation by default (corrupted outputs are the scenario
// under study); force it back on with WithValidation(true). The
// injector records activations, so share one injector across concurrent
// runs only if you do not read its counters until all runs finish —
// prefer one injector per run.
func WithFaults(inj *Injector, onError func(ErrorEvent)) RunOption {
	return func(s *runSpec) { s.opts.Fault = inj; s.opts.OnError = onError }
}

// WithRetry re-executes the whole workload from its inputs — the
// paper's §3.1 handling sketch — when a DMR comparator flags a mismatch
// or the corrupted run crashes, up to maxAttempts times. Transient
// faults vanish on the retry (Result.Recovered); persistent faults
// exhaust the attempts and Run returns an error.
func WithRetry(maxAttempts int) RunOption {
	return func(s *runSpec) { s.attempts = maxAttempts }
}

// WithTrace streams one event per issued warp instruction to sink.
// When the same sink is shared across RunMany workloads it must be safe
// for concurrent use.
func WithTrace(sink TraceSink) RunOption { return func(s *runSpec) { s.opts.Trace = sink } }

// WithStopOnError aborts the run at the first detected mismatch — the
// paper's "stop and raise an exception" permanent-fault response.
func WithStopOnError() RunOption { return func(s *runSpec) { s.opts.StopOnError = true } }

// WithLaunchOpts replaces the whole per-launch option set (fault hooks,
// error thresholds, watchdog, tracing) for full control. It composes
// poorly with the targeted options above — apply it first if you mix.
func WithLaunchOpts(opts LaunchOpts) RunOption { return func(s *runSpec) { s.opts = opts } }

// WithValidation forces output validation against the host reference on
// or off, overriding the default (validate only fault-free runs).
func WithValidation(on bool) RunOption { return func(s *runSpec) { s.validate = &on } }

// WithMetrics attaches a metrics registry to the run: every launch of
// the workload contributes its simulator and DMR counters, and the
// whole Run is observed into the run.latency_ms histogram. Read the
// results with m.Snapshot() after Run returns. The registry accumulates
// across runs (and is safe to share between concurrent ones); use a
// fresh registry per run for per-run numbers. Attaching a registry
// never changes the simulation output — stats stay byte-identical.
func WithMetrics(m *Metrics) RunOption { return func(s *runSpec) { s.opts.Metrics = m } }

// Run executes one named Table 4 workload under ctx. Cancellation is
// checked every few thousand simulated cycles, so even a hung kernel
// returns promptly with a ctx.Err()-wrapped error.
func (r *Runner) Run(ctx context.Context, name string, options ...RunOption) (*Result, error) {
	spec := &runSpec{cfg: WarpedDMRConfig(), attempts: 1}
	for _, o := range options {
		o(spec)
	}
	if spec.opts.Metrics == nil {
		spec.opts.Metrics = r.Metrics
	}
	if reg := spec.opts.Metrics; reg != nil {
		start := time.Now()
		defer func() {
			reg.Histogram("run.latency_ms", metrics.LatencyMSBounds).
				Observe(time.Since(start).Milliseconds())
		}()
	}
	b, err := kernels.Lookup(name)
	if err != nil {
		return nil, err
	}
	validate := spec.opts.Fault == nil
	if spec.validate != nil {
		validate = *spec.validate
	}
	out, err := kernels.RunJob(ctx, spec.cfg, b, spec.opts, spec.attempts, validate, "warped: "+name)
	if err != nil {
		return nil, err
	}
	return &Result{Stats: out.Stats, Benchmark: name, Attempts: out.Attempts,
		Recovered: out.Recovered, Detections: out.Detections}, nil
}

// RunMany executes the named workloads concurrently on a worker pool of
// r.Parallel goroutines and returns their results in input order (never
// completion order). A panicking run becomes that workload's error; the
// first failure cancels the remaining workloads.
func (r *Runner) RunMany(ctx context.Context, names []string, options ...RunOption) ([]*Result, error) {
	return runner.Map(ctx, runner.Options{Workers: r.Parallel, OnProgress: r.Progress, Metrics: r.Metrics},
		len(names), func(ctx context.Context, i int) (*Result, error) {
			return r.Run(ctx, names[i], options...)
		})
}

// EstimatePower applies the analytical power model to a finished run.
func EstimatePower(cfg Config, st *Stats) PowerReport {
	return power.Estimate(cfg, power.DefaultParams(), st)
}

// Experiment results, re-exported for programmatic use; each has a
// Table() renderer. See cmd/experiments for the CLI that prints them.
type (
	// Engine runs the figure harnesses on a worker pool: one method per
	// figure or extension, e.g. (&Engine{}).Fig9a(ctx). Its Workers
	// field plays the same role as Runner.Parallel. The zero value runs
	// with GOMAXPROCS workers.
	Engine = experiments.Engine

	Fig1Result      = experiments.Fig1Result
	Fig5Result      = experiments.Fig5Result
	Fig8aResult     = experiments.Fig8aResult
	Fig8bResult     = experiments.Fig8bResult
	Fig9aResult     = experiments.Fig9aResult
	Fig9bResult     = experiments.Fig9bResult
	Fig10Result     = experiments.Fig10Result
	Fig11Result     = experiments.Fig11Result
	CampaignResult  = experiments.CampaignResult
	SamplingResult  = experiments.SamplingResult
	SchedulerResult = experiments.SchedulerResult

	// ParetoSpec configures a selective-protection policy sweep;
	// ParetoResult holds its coverage-vs-overhead points.
	ParetoSpec   = experiments.ParetoSpec
	ParetoPoint  = experiments.ParetoPoint
	ParetoResult = experiments.ParetoResult
)
