package sim

import (
	"context"
	"errors"
	"fmt"

	"warped/internal/arch"
	"warped/internal/cache"
	"warped/internal/core"
	"warped/internal/exec"
	"warped/internal/isa"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/stats"
	"warped/internal/trace"
)

// ErrErrorDetected is wrapped by Launch's error when StopOnError is set
// and a Warped-DMR comparator flagged a mismatch.
var ErrErrorDetected = errors.New("sim: execution error detected by Warped-DMR")

// Kernel is one launchable grid: a program plus launch geometry,
// parameters, and per-block shared memory demand.
type Kernel struct {
	Prog        *isa.Program
	GridX       int
	GridY       int
	BlockX      int
	BlockY      int
	SharedBytes int
	Params      *mem.Params

	// ShadowGrid doubles the grid for the R-Thread baseline: blocks
	// N..2N-1 re-execute block (i-N)'s work with global side effects
	// suppressed, modelling redundant thread blocks that write to a
	// disjoint shadow output.
	ShadowGrid bool
}

// NumBlocks returns the number of thread blocks in the grid.
func (k *Kernel) NumBlocks() int { return k.GridX * k.GridY }

// ThreadsPerBlock returns the flattened block size.
func (k *Kernel) ThreadsPerBlock() int { return k.BlockX * k.BlockY }

// Validate reports the first launch-configuration error.
func (k *Kernel) Validate(cfg arch.Config) error {
	switch {
	case k.Prog == nil || len(k.Prog.Instrs) == 0:
		return fmt.Errorf("sim: kernel has no program")
	case k.GridX <= 0 || k.GridY <= 0:
		return fmt.Errorf("sim: bad grid %dx%d", k.GridX, k.GridY)
	case k.BlockX <= 0 || k.BlockY <= 0:
		return fmt.Errorf("sim: bad block %dx%d", k.BlockX, k.BlockY)
	case k.ThreadsPerBlock() > cfg.MaxThreadsPerSM:
		return fmt.Errorf("sim: block of %d threads exceeds SM capacity %d",
			k.ThreadsPerBlock(), cfg.MaxThreadsPerSM)
	case k.Prog.BlockDimX > 0 && (k.BlockX > k.Prog.BlockDimX || k.BlockY > k.Prog.BlockDimY):
		// .block declares the worst-case geometry the kernel was
		// verified against; launching wider would outrun the static
		// bounds/race analysis (smaller launches are fine).
		return fmt.Errorf("sim: launch block %dx%d exceeds the program's declared .block %dx%d",
			k.BlockX, k.BlockY, k.Prog.BlockDimX, k.Prog.BlockDimY)
	case k.SharedBytes > cfg.SharedMemBytes:
		return fmt.Errorf("sim: block shared memory %d exceeds SM capacity %d",
			k.SharedBytes, cfg.SharedMemBytes)
	case k.Prog.NumRegs > isa.MaxGPR:
		return fmt.Errorf("sim: program uses %d registers, max %d", k.Prog.NumRegs, isa.MaxGPR)
	}
	return nil
}

// LaunchOpts are per-launch options.
type LaunchOpts struct {
	Fault     FaultHook             // nil for fault-free runs
	OnError   func(core.ErrorEvent) // called on each detected mismatch
	TrackRAW  bool                  // enable Fig. 8b RAW-distance tracking
	MaxCycles int64                 // watchdog; 0 means the default (200M)

	// StopOnError aborts the launch at the first detected mismatch —
	// the paper's §3.1 permanent-fault handling ("stop running the
	// program and raise an exception to the system"). The returned
	// error wraps ErrErrorDetected.
	StopOnError bool

	// StopAfterErrors aborts once this many mismatches have been
	// flagged (0 = never). Useful for diagnosis runs that need several
	// events to isolate a faulty lane before raising the exception.
	StopAfterErrors int

	// Trace receives one event per issued warp instruction (nil = off).
	Trace trace.Sink

	// Metrics, when non-nil, receives the launch's operational counters
	// (see docs/OBSERVABILITY.md for the metric contract). Each SM
	// tallies them in plain fields and the launch publishes them once,
	// on every return path, so the registry moves per launch, not
	// mid-launch. It is safe to share across concurrent launches:
	// publication is atomic and accumulates across everything wired to
	// it.
	Metrics *metrics.Registry
}

// GPU is the whole simulated chip: global memory plus NumSMs SMs.
type GPU struct {
	Cfg arch.Config
	Mem *mem.Global

	now        int64
	dramTokens float64      // leaky-bucket DRAM bandwidth credit
	l2         *cache.Cache // chip-wide L2 (nil when caches are off)
	fault      FaultHook
	tracer     trace.Sink
	warpGIDs   int
	blocksDone int
	trackBlock int
	trackWarp  int
}

// DefaultMemBytes is the global-memory size New provisions when asked
// for zero. Memory is paged on first store, so the size costs nothing
// until a run touches it.
const DefaultMemBytes = 64 << 20

// New builds a GPU with the given configuration and a global memory of
// memBytes (DefaultMemBytes if zero).
func New(cfg arch.Config, memBytes int) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if memBytes <= 0 {
		memBytes = DefaultMemBytes
	}
	g := &GPU{Cfg: cfg, Mem: mem.NewGlobal(memBytes)}
	if cfg.ModelCaches {
		g.l2 = cache.New(cfg.L2)
	}
	return g, nil
}

func (g *GPU) nextWarpGID() int {
	g.warpGIDs++
	return g.warpGIDs
}

// cancelCheckInterval is how many simulated cycles pass between
// context-cancellation checks inside the Launch loop: coarse enough to
// stay off the hot path, fine enough that cancelling a hung or
// long-running kernel returns in well under a kernel's full runtime.
const cancelCheckInterval = 4096

// Launch runs one kernel to completion and returns its statistics.
// The GPU's global memory persists across launches, so multi-kernel
// workloads (e.g. BFS iterations, FFT stages) can chain launches.
func (g *GPU) Launch(k *Kernel, opts LaunchOpts) (*stats.Stats, error) {
	return g.LaunchContext(context.Background(), k, opts)
}

// LaunchContext is Launch with cooperative cancellation: the simulation
// loop checks ctx every cancelCheckInterval simulated cycles and aborts
// with a ctx.Err()-wrapped error when it fires, so hung kernels are
// interruptible. A nil ctx behaves like context.Background().
func (g *GPU) LaunchContext(ctx context.Context, k *Kernel, opts LaunchOpts) (*stats.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sim: launch aborted before cycle 0: %w", err)
	}
	if err := k.Validate(g.Cfg); err != nil {
		return nil, err
	}
	if k.Params == nil {
		k.Params = mem.NewParams()
	}
	g.fault = opts.Fault
	g.tracer = opts.Trace
	g.blocksDone = 0
	g.now = 0
	g.dramTokens = 0
	if g.l2 != nil {
		g.l2.Reset() // caches are cold at each kernel launch
	}

	total := &stats.Stats{}
	perSM := make([]*stats.Stats, g.Cfg.NumSMs)
	sms := make([]*sm, g.Cfg.NumSMs)
	var firstError *core.ErrorEvent
	errorCount := 0
	threshold := opts.StopAfterErrors
	if opts.StopOnError && (threshold == 0 || threshold > 1) {
		threshold = 1
	}
	onError := opts.OnError
	if threshold > 0 {
		user := opts.OnError
		onError = func(ev core.ErrorEvent) {
			errorCount++
			if firstError == nil && errorCount >= threshold {
				e := ev
				firstError = &e
			}
			if user != nil {
				user(ev)
			}
		}
	}
	// Pre-decode the program once per launch: every SM executes the same
	// flat stream of bound step/compute functions, so the per-cycle issue
	// path never consults the isa-level instruction encoding.
	comp, err := exec.Compile(k.Prog)
	if err != nil {
		return nil, err
	}
	// Resolve instrument sets once per launch; all SMs of the launch
	// publish into them when it returns. With opts.Metrics nil these are
	// all-nil no-op sets.
	met := launchMetrics{
		sim:  metrics.ForSim(opts.Metrics),
		exec: metrics.ForExec(opts.Metrics),
		dmr:  metrics.ForDMR(opts.Metrics, g.Cfg.WarpSize, g.Cfg.ClusterSize),
	}
	// Resolve the protection policy once per launch, against the real
	// kernel name (NewEngine compiled it with an empty name). PolicyFull
	// compiles to nil, leaving the issue path byte-identical.
	pol := core.CompilePolicy(g.Cfg.Policy, k.Prog.Name)
	for i := range sms {
		sms[i] = newSM(i, g, comp, opts.Fault, onError, met)
		sms[i].engine.SetPolicy(pol)
		perSM[i] = sms[i].stats()
	}
	// Every return from here on (completion, crash, deadlock, watchdog,
	// cancellation, StopOnError) publishes what the SMs tallied.
	defer func() {
		for _, s := range sms {
			s.publishMetrics()
		}
	}()
	if opts.TrackRAW {
		// Paper Fig. 8b tracks warp 1 ("thread 32"), falling back to
		// warp 0 when blocks have a single warp.
		g.trackBlock = 0
		if k.ThreadsPerBlock() > g.Cfg.WarpSize {
			g.trackWarp = 1
		} else {
			g.trackWarp = 0
		}
		perSM[0].RAW = stats.NewRAWTracker(200)
	}

	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 200_000_000
	}

	numBlocks := k.NumBlocks()
	if k.ShadowGrid {
		numBlocks *= 2
	}
	nextBlock := 0
	for g.blocksDone < numBlocks {
		// Dispatch pending blocks breadth-first: one block per SM per
		// pass, like the hardware work distributor, so load spreads
		// across the chip instead of saturating low-numbered SMs.
		for assigned := true; assigned && nextBlock < numBlocks; {
			assigned = false
			for _, s := range sms {
				if nextBlock >= numBlocks {
					break
				}
				if s.canHost(k) {
					s.host(k, nextBlock, opts.TrackRAW)
					nextBlock++
					assigned = true
				}
			}
		}
		g.dramTokens += g.Cfg.DRAMSegPerCyc
		if cap := 8 * g.Cfg.DRAMSegPerCyc; g.dramTokens > cap {
			g.dramTokens = cap // bound burst credit
		}
		anyBusy := false
		for _, s := range sms {
			if s.tick(g.now) {
				anyBusy = true
			}
			if s.err != nil {
				return nil, s.err
			}
		}
		g.now++
		if firstError != nil {
			return nil, fmt.Errorf("%w: %d mismatches; last: SM %d lane %d vs %d at pc %d (cycle %d): %08x != %08x",
				ErrErrorDetected, errorCount, firstError.SM, firstError.OrigLane, firstError.VerifLane,
				firstError.PC, g.now, firstError.Original, firstError.Redundant)
		}
		if !anyBusy && g.blocksDone < numBlocks && nextBlock >= numBlocks {
			return nil, fmt.Errorf("sim: deadlock at cycle %d (%d/%d blocks done)",
				g.now, g.blocksDone, numBlocks)
		}
		if g.now >= maxCycles {
			return nil, fmt.Errorf("sim: watchdog expired at %d cycles (%d/%d blocks done)",
				g.now, g.blocksDone, numBlocks)
		}
		if g.now%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("sim: launch cancelled at cycle %d (%d/%d blocks done): %w",
					g.now, g.blocksDone, numBlocks, err)
			}
		}
	}

	// Drain DMR state: replay anything still buffered, on now-idle units.
	end := g.now
	for i, s := range sms {
		drained := int64(s.engine.Drain(s.lastBusy + 1))
		fin := s.lastBusy + 1 + drained
		if fin > end {
			end = fin
		}
		perSM[i].Cycles = fin
		perSM[i].SMCycles = []int64{fin}
		perSM[i].Runs.Flush()
	}
	for _, ps := range perSM {
		total.Merge(ps)
	}
	total.Cycles = end
	return total, nil
}
