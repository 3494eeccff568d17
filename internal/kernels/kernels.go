// Package kernels contains the 11 workloads of the paper's Table 4,
// re-implemented for the simulator: each benchmark is one or more
// kernels hand-written in the PTX-like assembly of internal/asm plus a
// Go host driver that stages device memory, sequences launches, and
// validates results against a host reference implementation.
//
// Inputs are scaled down from the paper's so the whole suite simulates
// in seconds; each workload keeps its algorithmic structure — and hence
// its divergence profile and instruction mix, the properties every
// Warped-DMR result depends on.
package kernels

import (
	"context"
	"fmt"
	"slices"

	"warped/internal/arch"
	"warped/internal/core"
	"warped/internal/isa"
	"warped/internal/sim"
	"warped/internal/stats"
)

// Step is one kernel launch within a benchmark run. Between launches
// the Host callback (if any) runs, standing in for host-side work such
// as the small bucket-offset scan in RadixSort.
type Step struct {
	Kernel *sim.Kernel
	Host   func(g *sim.GPU) error // optional host-side work after the launch
}

// Run is one prepared benchmark execution.
type Run struct {
	Steps    []Step
	Check    func(g *sim.GPU) error // validates device results
	InBytes  int64                  // host->device bytes (Fig. 10 transfer model)
	OutBytes int64                  // device->host bytes
}

// Benchmark is one Table 4 workload.
type Benchmark struct {
	Name     string
	Category string
	Desc     string
	// Build stages the benchmark on the GPU and returns its Run.
	Build func(g *sim.GPU) (*Run, error)

	// kernels are the bundled sources Build launches, in first-launch
	// order.
	kernels []*Source
}

// Programs returns the programs of the bundled kernels b's Build
// launches, in first-launch order, without building b. An Inline
// workload declares none.
func (b *Benchmark) Programs() ([]*isa.Program, error) {
	progs := make([]*isa.Program, len(b.kernels))
	for i, s := range b.kernels {
		p, err := s.Program()
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

// GPUMemBytes returns the device global-memory size a run of the
// benchmark provisions: the simulator default, the same on every path
// (library, figure harnesses, warpd), so a fault that drives an address
// out of range crashes with the same message wherever the run executes.
// Attempt provisions it by passing zero to sim.New; perfbench's traced
// replays read it here.
func (b *Benchmark) GPUMemBytes() int { return sim.DefaultMemBytes }

// Attempt runs b once on a fresh GPU of the default memory size: Build,
// then for each step the launch, a serial merge of its statistics
// (cycles accumulate, everything else sums or merges) and the host
// step, then the host-reference Check when validate is set. Every
// benchmark execution goes through it, so a run gets the same answer
// wherever it executes.
//
// When a launch or host step fails, the merged statistics of the
// launches that completed come back with the error, so a fault campaign
// can still tell a detection from a crash. A nil Stats with an error
// means the attempt never ran: a bad configuration or a failed Build.
func Attempt(ctx context.Context, cfg arch.Config, b *Benchmark, opts sim.LaunchOpts, validate bool) (*stats.Stats, *Run, error) {
	g, err := sim.New(cfg, 0)
	if err != nil {
		return nil, nil, err
	}
	run, err := b.Build(g)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	total := &stats.Stats{}
	for i, step := range run.Steps {
		st, err := g.LaunchContext(ctx, step.Kernel, opts)
		if err != nil {
			return total, run, fmt.Errorf("%s: launch %d: %w", b.Name, i, err)
		}
		total.MergeSerial(st)
		if step.Host != nil {
			if err := step.Host(g); err != nil {
				return total, run, fmt.Errorf("%s: host step %d: %w", b.Name, i, err)
			}
		}
	}
	if validate && run.Check != nil {
		if err := run.Check(g); err != nil {
			return total, run, fmt.Errorf("%s: validation: %w", b.Name, err)
		}
	}
	return total, run, nil
}

// Outcome is the result of one job: the statistics of its accepted
// attempt plus the retry bookkeeping. warped.Runner.Run builds its
// Result from it, and warpd stores and serves it as a job's result.
type Outcome struct {
	Stats *stats.Stats `json:"stats"`

	// Attempts is the number of workload executions behind this result:
	// 1 unless the retry budget re-ran the workload after a detection.
	Attempts int `json:"attempts"`

	// Recovered reports that at least one attempt was discarded after a
	// comparator detection (or crash) and a later attempt ran clean.
	Recovered bool `json:"recovered"`

	// Detections counts comparator mismatches across all attempts.
	Detections int `json:"detections"`
}

// RunJob runs b as one job: at most attempts calls of Attempt under
// the retry loop, counting every comparator detection before the
// caller's opts.OnError sees it. The library and warpd both run their
// jobs through it, so a job answers the same wherever it executes. who
// prefixes the retry loop's own errors, e.g. "warped: BFS".
func RunJob(ctx context.Context, cfg arch.Config, b *Benchmark, opts sim.LaunchOpts, attempts int, validate bool, who string) (*Outcome, error) {
	out := &Outcome{}
	onError := opts.OnError
	opts.OnError = func(ev core.ErrorEvent) {
		out.Detections++
		if onError != nil {
			onError(ev)
		}
	}
	st, n, err := retry(ctx, attempts, who, func() (*stats.Stats, error) {
		st, _, err := Attempt(ctx, cfg, b, opts, validate)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	out.Stats, out.Attempts, out.Recovered = st, n, n > 1
	return out, nil
}

// retry makes up to n attempts at a job: the paper's §3.1 handling
// sketch, re-executing the whole workload from its inputs when a DMR
// comparator flags a mismatch or the corrupted run crashes. It returns
// the statistics of the first clean attempt and the number of attempts
// made. With n <= 1 there is no retry budget: the one attempt's error
// is returned as is, and a completed run is returned even when it
// detected mismatches. Cancellation is never retried. who prefixes
// retry's own errors.
func retry(ctx context.Context, n int, who string, attempt func() (*stats.Stats, error)) (*stats.Stats, int, error) {
	n = max(n, 1)
	for i := 1; i <= n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, i - 1, fmt.Errorf("%s: %w", who, err)
		}
		st, err := attempt()
		switch {
		case err == nil && (st.FaultsDetected == 0 || n == 1):
			return st, i, nil
		case err != nil && (n == 1 || ctx.Err() != nil):
			return nil, i, err
		}
		// Detected (or crashed) with retries left: discard the attempt.
	}
	return nil, n, fmt.Errorf("%s still failing after %d attempts: fault appears permanent", who, n)
}

// Inline wraps an assembled kernel as a one-launch workload named name:
// k's geometry and params, its shared memory raised to the program's
// .shared directive, and no host-reference check. Each Build launches
// a fresh copy of k, because a launch fills in a nil Params; Build
// never touches its GPU, so a caller may pass nil to inspect that
// kernel before any attempt. Verifying prog stays with the caller.
func Inline(name string, prog *isa.Program, k sim.Kernel) *Benchmark {
	k.Prog = prog
	k.SharedBytes = max(k.SharedBytes, prog.SharedBytes)
	return &Benchmark{Name: name, Build: func(*sim.GPU) (*Run, error) {
		k := k
		return &Run{Steps: []Step{{Kernel: &k}}}, nil
	}}
}

// suite is every bundled workload: the paper's Table 4 in its Figure-1
// order, then the extras. A workload is declared in its own file and
// listed here; nothing else names it.
var suite = []*Benchmark{
	bfsBench, nqueenBench, mumBench, scanBench, bitonicBench, laplaceBench,
	matmulBench, radixBench, shaBench, liborBench, fftBench,
	reduceBench, transposeBench, histogramBench, vulnMicroBench,
}

// numPaper counts the leading workloads of suite that are the paper's
// Table 4; the extras follow them.
const numPaper = 11

// All returns the paper's Table 4 benchmarks in its Figure-1 order.
func All() []*Benchmark { return slices.Clone(suite[:numPaper]) }

// Extras returns the non-paper reference workloads.
func Extras() []*Benchmark { return slices.Clone(suite[numPaper:]) }

// ByName returns the Table 4 benchmark with the given name.
func ByName(name string) (*Benchmark, error) {
	for _, b := range suite[:numPaper] {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
}

// ExtraByName returns an extra workload by name.
func ExtraByName(name string) (*Benchmark, error) {
	for _, b := range suite[numPaper:] {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown extra workload %q", name)
}

// Lookup returns the named workload from the paper suite, or failing
// that from the extras.
func Lookup(name string) (*Benchmark, error) {
	if b, err := ByName(name); err == nil {
		return b, nil
	}
	return ExtraByName(name)
}

// Names returns all benchmark names in paper order.
func Names() []string {
	bs := All()
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}
