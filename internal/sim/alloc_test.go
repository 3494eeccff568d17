package sim

import (
	"runtime"
	"testing"

	"warped/internal/arch"
	"warped/internal/core"
	"warped/internal/fault"
	"warped/internal/isa"
	"warped/internal/metrics"
)

// loopKernel builds a kernel whose single warp runs a uniform counted
// loop of the given trip count, touching the SP, SFU, LD/ST and branch
// paths each iteration.
func loopKernel(trips uint32) *Kernel {
	p := &isa.Program{Name: "alloc-loop", NumRegs: 8, Labels: map[string]int{}}
	add := func(in isa.Instr) {
		if in.Pred == (isa.PredRef{}) {
			in.Pred = isa.AlwaysPred()
		}
		p.Instrs = append(p.Instrs, in)
	}
	add(isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.ImmOp(0)}}) // i = 0
	add(isa.Instr{Op: isa.OpSHL, Dst: 1, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX), isa.ImmOp(2)}})
	add(isa.Instr{Op: isa.OpIADD, Dst: 1, Src: [3]isa.Operand{isa.RegOp(1), isa.ImmOp(256)}})
	// loop body (pc 3..7)
	add(isa.Instr{Op: isa.OpIADD, Dst: 0, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(1)}})
	add(isa.Instr{Op: isa.OpST, Space: isa.SpaceGlobal, Src: [3]isa.Operand{isa.RegOp(1), isa.RegOp(0)}})
	add(isa.Instr{Op: isa.OpLD, Space: isa.SpaceGlobal, Dst: 2, Src: [3]isa.Operand{isa.RegOp(1)}})
	add(isa.Instr{Op: isa.OpFRCP, Dst: 3, Src: [3]isa.Operand{isa.RegOp(2)}})
	add(isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpU32, PDst: 1,
		Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(trips)}})
	add(isa.Instr{Op: isa.OpBRA, Target: 3, Pred: isa.PredRef{Index: 1}})
	add(isa.Instr{Op: isa.OpEXIT})
	return &Kernel{Prog: p, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1}
}

// TestLaunchSteadyStateZeroAllocs pins the issue/execute/DMR hot loop
// at zero allocations per instruction: two launches that differ only in
// loop trip count must allocate exactly the same, so every allocation
// is per-launch setup and none is per-instruction.
func TestLaunchSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; CI runs this guard without -race")
	}
	type guardCase struct {
		policy arch.Policy
		mem    int  // device memory bytes; 0 is the 64 MB warpd worker machine
		armed  bool // registry attached and a firing fault injected
	}
	perLaunch := func(trips uint32, c guardCase) float64 {
		cfg := arch.WarpedDMRConfig()
		cfg.NumSMs = 1
		cfg.Policy = c.policy
		g, err := New(cfg, c.mem)
		if err != nil {
			t.Fatal(err)
		}
		k := loopKernel(trips)
		var opts LaunchOpts
		if c.armed {
			opts.Metrics = metrics.New()
			// A stuck SFU output bit: every frcp result on lane 3 is
			// corrupted and caught by the comparators, so the fault hook,
			// the detection path and every metric tally run each trip.
			opts.Fault = fault.NewInjector(&fault.Fault{Kind: fault.StuckAt, SM: 0, Lane: 3, Unit: isa.UnitSFU, StuckVal: 1})
		}
		return testing.AllocsPerRun(10, func() {
			st, err := g.Launch(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.armed && st.FaultsDetected == 0 {
				t.Fatal("armed fault was never detected")
			}
		})
	}
	cases := map[string]guardCase{
		// The protection-policy decision must stay allocation-free too:
		// the default Full policy and non-trivial selective policies
		// (docs/POLICIES.md).
		"full":           {mem: 1 << 16},
		"warpsample:1/2": {policy: arch.Policy{Kind: arch.PolicyWarpSample, SampleN: 2}, mem: 1 << 16},
		// The shape vulnerability synthesis emits: a multi-range pcset
		// whose per-issue decision is a linear scan, not a lookup table.
		"pcset": {policy: arch.Policy{Kind: arch.PolicyPCSet, PCRanges: [][2]int{{0, 2}, {5, 9}}}, mem: 1 << 16},
		// A warpd campaign job: metrics on, a fault armed, paged 64 MB
		// memory. Pages are allocated on first store, once per page,
		// not once per instruction.
		"registry+injector": {armed: true},
	}
	for name, c := range cases {
		short := perLaunch(64, c)
		long := perLaunch(1024, c)
		// ~4800 extra warp instructions between the two runs; any per-
		// instruction allocation shows up as thousands of extra objects.
		if delta := long - short; delta > 1 {
			t.Errorf("%s: longer kernel allocates %.1f more objects per launch (short %.1f, long %.1f); issue path is allocating per instruction",
				name, delta, short, long)
		}
	}
}

// TestLaunchSetupAllocs bounds what one launch allocates on the default
// 30-SM machine. Each SM's engine is built from the launch's policy and
// instrument set, its L1 tags are one array, and only an engine with
// inter-warp DMR holds a ReplayQ: a DMR-off launch allocates at least
// the warped launch's ReplayQ bytes fewer.
func TestLaunchSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own; CI runs this guard without -race")
	}
	perLaunch := func(cfg arch.Config) (objects float64, bytes uint64) {
		g, err := New(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := loopKernel(10)
		run := func() {
			if _, err := g.Launch(k, LaunchOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		objects = testing.AllocsPerRun(10, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return objects, (after.TotalAlloc - before.TotalAlloc) / 10
	}
	warped := arch.WarpedDMRConfig()
	objects, warpedBytes := perLaunch(warped)
	const maxObjects = 260 // 244 measured
	if objects > maxObjects {
		t.Errorf("a one-block warped launch allocates %.0f objects, want at most %d", objects, maxObjects)
	}
	_, offBytes := perLaunch(arch.PaperConfig())
	replayQ := uint64(warped.NumSMs * warped.ReplayQSize * core.ReplayQEntryBytes)
	if offBytes+replayQ > warpedBytes {
		t.Errorf("a DMR-off launch allocates %d bytes against %d warped; want at least the %d bytes of ReplayQ fewer",
			offBytes, warpedBytes, replayQ)
	}
}
