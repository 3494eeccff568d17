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
	"sort"

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
	// MemBytes overrides the device global-memory size to provision
	// (0 = the suite default; see GPUMemBytes).
	MemBytes int
}

// GPUMemBytes returns the device global-memory size the library's
// runners provision for the benchmark: the Table 4 inputs are scaled to
// fit comfortably in 2 MB. warpd runs jobs on the simulator's 64 MB
// default instead, so a fault that pushes an address past 2 MB can
// answer differently there.
func (b *Benchmark) GPUMemBytes() int {
	if b.MemBytes > 0 {
		return b.MemBytes
	}
	return 2 << 20
}

// Execute builds and runs the benchmark on g, merging statistics across
// launches (cycles accumulate; everything else sums/merges), then
// validates the results.
func Execute(g *sim.GPU, b *Benchmark, opts sim.LaunchOpts) (*stats.Stats, error) {
	return ExecuteContext(context.Background(), g, b, opts)
}

// ExecuteContext is Execute with cooperative cancellation: ctx is
// plumbed into every kernel launch, so a long multi-launch workload
// aborts promptly when it fires.
func ExecuteContext(ctx context.Context, g *sim.GPU, b *Benchmark, opts sim.LaunchOpts) (*stats.Stats, error) {
	run, err := b.Build(g)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	total := &stats.Stats{}
	for i, step := range run.Steps {
		st, err := g.LaunchContext(ctx, step.Kernel, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: launch %d: %w", b.Name, i, err)
		}
		total.MergeSerial(st)
		if step.Host != nil {
			if err := step.Host(g); err != nil {
				return nil, fmt.Errorf("%s: host step %d: %w", b.Name, i, err)
			}
		}
	}
	if run.Check != nil {
		if err := run.Check(g); err != nil {
			return nil, fmt.Errorf("%s: validation: %w", b.Name, err)
		}
	}
	return total, nil
}

var registry []*Benchmark

func register(b *Benchmark) { registry = append(registry, b) }

// paperOrder is the benchmark order used in the paper's Figure 1.
var paperOrder = []string{
	"BFS", "Nqueen", "MUM", "SCAN", "BitonicSort", "Laplace",
	"MatrixMul", "RadixSort", "SHA", "Libor", "CUFFT",
}

// All returns every registered benchmark in the paper's figure order.
func All() []*Benchmark {
	rank := make(map[string]int, len(paperOrder))
	for i, n := range paperOrder {
		rank[n] = i
	}
	out := make([]*Benchmark, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		ri, iok := rank[out[i].Name]
		rj, jok := rank[out[j].Name]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return out[i].Name < out[j].Name
		}
	})
	return out
}

// ByName returns the benchmark with the given name.
func ByName(name string) (*Benchmark, error) {
	for _, b := range registry {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
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
