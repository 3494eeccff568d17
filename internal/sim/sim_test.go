package sim

import (
	"errors"
	"reflect"
	"testing"

	"warped/internal/arch"
	"warped/internal/asm"
	isa2 "warped/internal/isa"
	"warped/internal/mem"
	"warped/internal/stats"
	"warped/internal/trace"
)

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// oneWarpCfg shrinks the machine to a single SM for timing tests.
func oneWarpCfg() arch.Config {
	cfg := arch.PaperConfig()
	cfg.NumSMs = 1
	return cfg
}

func launch(t *testing.T, cfg arch.Config, src string, k func(*GPU, *Kernel)) (*GPU, *Kernel) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(cfg, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	kern := &Kernel{Prog: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1}
	if k != nil {
		k(g, kern)
	}
	return g, kern
}

// TestScoreboardRAWTiming: a dependent chain must be spaced by the SP
// latency, while independent instructions issue back to back.
func TestScoreboardRAWTiming(t *testing.T) {
	dep := `
.kernel dep
	mov  r0, 1
	iadd r1, r0, 1
	iadd r2, r1, 1
	iadd r3, r2, 1
	exit
`
	indep := `
.kernel indep
	mov  r0, 1
	iadd r1, r0, 1
	iadd r2, r0, 1
	iadd r3, r0, 1
	exit
`
	cfg := oneWarpCfg()
	g1, k1 := launch(t, cfg, dep, nil)
	st1, err := g1.Launch(k1, LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	g2, k2 := launch(t, cfg, indep, nil)
	st2, err := g2.Launch(k2, LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st1.Cycles <= st2.Cycles {
		t.Errorf("dependent chain (%d cycles) should be slower than independent (%d)",
			st1.Cycles, st2.Cycles)
	}
	// The dependent chain pays ~SPLat per dependent link (the first
	// link stalls in both programs).
	if min := int64(2 * (cfg.SPLat - 1)); st1.Cycles-st2.Cycles < min {
		t.Errorf("RAW spacing too small: dep %d vs indep %d", st1.Cycles, st2.Cycles)
	}
}

// TestGlobalLatencyVisible: a load-to-use chain pays the global memory
// latency.
func TestGlobalLatencyVisible(t *testing.T) {
	src := `
.kernel lduse
	ld.param r0, [0]
	ld.global r1, [r0]
	iadd r2, r1, 1
	exit
`
	cfg := oneWarpCfg()
	g, k := launch(t, cfg, src, nil)
	buf := g.Mem.MustAlloc(64)
	k.Params = mem.NewParams(buf)
	st, err := g.Launch(k, LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < int64(cfg.GlobalLat) {
		t.Errorf("cycles %d below global latency %d", st.Cycles, cfg.GlobalLat)
	}
}

// TestUncoalescedCostsMore: stride-128 loads occupy the LD/ST unit for
// one cycle per segment.
func TestUncoalescedCostsMore(t *testing.T) {
	mk := func(strideShift int) string {
		return `
.kernel stride
	ld.param r0, [0]
	mov  r1, %tid.x
	shl  r1, r1, ` + string(rune('0'+strideShift)) + `
	iadd r1, r0, r1
	ld.global r2, [r1]
	ld.global r3, [r1]
	ld.global r4, [r1]
	ld.global r5, [r1]
	exit
`
	}
	cfg := oneWarpCfg()
	run := func(shift int) int64 {
		g, k := launch(t, cfg, mk(shift), nil)
		buf := g.Mem.MustAlloc(32 * 256)
		k.Params = mem.NewParams(buf)
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	coalesced := run(2) // stride 4: one segment
	scattered := run(7) // stride 128: 32 segments
	if scattered <= coalesced {
		t.Errorf("scattered (%d) should cost more than coalesced (%d)", scattered, coalesced)
	}
}

// TestDRAMBandwidthThrottles: with many SMs hammering global memory,
// reducing DRAM bandwidth must slow the kernel down.
func TestDRAMBandwidthThrottles(t *testing.T) {
	src := `
.kernel hammer
	ld.param r0, [0]
	mov  r1, %ctaid.x
	mov  r2, %ntid.x
	imad r1, r1, r2, %tid.x
	shl  r1, r1, 7              ; stride 128: every lane its own segment
	iadd r1, r0, r1
	ld.global r2, [r1]
	ld.global r3, [r1+4]
	ld.global r4, [r1+8]
	st.global [r1+12], r2
	exit
`
	run := func(bw float64) int64 {
		cfg := arch.PaperConfig()
		cfg.DRAMSegPerCyc = bw
		prog := asm.MustAssemble(src)
		g, err := New(cfg, 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		buf := g.Mem.MustAlloc(16 * 256 * 128)
		k := &Kernel{Prog: prog, GridX: 16, GridY: 1, BlockX: 256, BlockY: 1,
			Params: mem.NewParams(buf)}
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	fast := run(100)
	slow := run(0.5)
	if slow <= fast {
		t.Errorf("low DRAM bandwidth (%d cycles) should be slower than high (%d)", slow, fast)
	}
}

// TestShadowGridDoublesWork: an R-Thread launch runs twice the blocks
// but leaves global results untouched by the duplicates.
func TestShadowGridDoublesWork(t *testing.T) {
	src := `
.kernel count
	ld.param r0, [0]
	mov  r1, 1
	atom.add.global r2, [r0], r1
	exit
`
	cfg := arch.PaperConfig()
	prog := asm.MustAssemble(src)

	run := func(shadow bool) (int64, uint32, int64) {
		g, err := New(cfg, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		ctr := g.Mem.MustAlloc(4)
		k := &Kernel{Prog: prog, GridX: 4, GridY: 1, BlockX: 32, BlockY: 1,
			Params: mem.NewParams(ctr), ShadowGrid: shadow}
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		v, _ := g.Mem.Load32(ctr)
		return st.Cycles, v, st.WarpInstrs
	}
	_, plainCount, plainInstrs := run(false)
	_, shadowCount, shadowInstrs := run(true)
	if plainCount != 4*32 {
		t.Fatalf("plain count = %d, want 128", plainCount)
	}
	if shadowCount != plainCount {
		t.Errorf("shadow blocks changed the result: %d vs %d", shadowCount, plainCount)
	}
	if shadowInstrs != 2*plainInstrs {
		t.Errorf("shadow grid instrs = %d, want %d (double)", shadowInstrs, 2*plainInstrs)
	}
}

func TestKernelValidation(t *testing.T) {
	cfg := arch.PaperConfig()
	prog := asm.MustAssemble(".kernel k\n\texit\n")
	g, _ := New(cfg, 0)
	bad := []*Kernel{
		{Prog: nil, GridX: 1, GridY: 1, BlockX: 1, BlockY: 1},
		{Prog: prog, GridX: 0, GridY: 1, BlockX: 1, BlockY: 1},
		{Prog: prog, GridX: 1, GridY: 1, BlockX: 0, BlockY: 1},
		{Prog: prog, GridX: 1, GridY: 1, BlockX: 2048, BlockY: 1},
		{Prog: prog, GridX: 1, GridY: 1, BlockX: 1, BlockY: 1, SharedBytes: 1 << 20},
	}
	for i, k := range bad {
		if _, err := g.Launch(k, LaunchOpts{}); err == nil {
			t.Errorf("bad kernel %d accepted", i)
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := arch.PaperConfig()
	cfg.NumSMs = 0
	if _, err := New(cfg, 0); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMemoryFaultAborts(t *testing.T) {
	src := `
.kernel crash
	mov r0, 0x7ffffff0
	ld.global r1, [r0]
	exit
`
	g, k := launch(t, oneWarpCfg(), src, nil)
	if _, err := g.Launch(k, LaunchOpts{}); err == nil {
		t.Error("out-of-range access must abort the launch")
	}
}

func TestWatchdog(t *testing.T) {
	src := `
.kernel forever
LOOP:
	iadd r0, r0, 1
	bra LOOP
`
	g, k := launch(t, oneWarpCfg(), src, nil)
	if _, err := g.Launch(k, LaunchOpts{MaxCycles: 1000}); err == nil {
		t.Error("infinite loop must trip the watchdog")
	}
}

func TestMultiBlockDistribution(t *testing.T) {
	// 60 blocks on 30 SMs: every SM should host work, and the run must
	// be much faster than a serialized execution.
	src := `
.kernel spin
	mov r0, 0
LOOP:
	iadd r0, r0, 1
	setp.lt.s32 p0, r0, 50
	@p0 bra LOOP
	exit
`
	cfg := arch.PaperConfig()
	prog := asm.MustAssemble(src)
	g, _ := New(cfg, 0)
	k := &Kernel{Prog: prog, GridX: 60, GridY: 1, BlockX: 32, BlockY: 1}
	st, err := g.Launch(k, LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	perBlock := int64(3*50 + 2)
	if st.Cycles > 4*perBlock {
		t.Errorf("60 blocks on 30 SMs took %d cycles; expected ~2 blocks' worth (%d)",
			st.Cycles, 2*perBlock)
	}
}

// TestIntraOnlyVsInterOnly: intra-warp DMR alone covers divergent code
// but not full warps; inter-warp alone covers full warps but not
// divergent remainders.
func TestIntraOnlyVsInterOnly(t *testing.T) {
	src := `
.kernel mixed
	mov  r0, %tid.x
	setp.lt.s32 p0, r0, 8
	@p0 bra PART, JOIN
	iadd r1, r0, 1        ; 24 lanes
	bra JOIN
PART:
	iadd r1, r0, 2        ; 8 lanes
JOIN:
	iadd r2, r1, 3        ; full warp
	iadd r3, r2, 4        ; full warp
	exit
`
	run := func(mode arch.DMRMode) (intra, inter int64) {
		cfg := oneWarpCfg()
		cfg.DMR = mode
		cfg.Mapping = arch.MapClusterRR // spread contiguous masks across clusters
		g, k := launch(t, cfg, src, nil)
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.VerifiedIntra, st.VerifiedInter
	}
	intra, inter := run(arch.DMRIntra)
	if intra == 0 || inter != 0 {
		t.Errorf("intra-only: %d/%d", intra, inter)
	}
	intra, inter = run(arch.DMRInter)
	if intra != 0 || inter == 0 {
		t.Errorf("inter-only: %d/%d", intra, inter)
	}
	i2, e2 := run(arch.DMRFull)
	if i2 == 0 || e2 == 0 {
		t.Errorf("full: %d/%d", i2, e2)
	}
}

// TestDMROverheadOrdering: for a same-type-burst kernel, overhead must
// decrease as the ReplayQ grows, and DMR-off must be fastest.
func TestDMROverheadOrdering(t *testing.T) {
	src := `
.kernel burst
	mov  r0, 0
LOOP:
	iadd r1, r0, 1
	iadd r2, r0, 2
	iadd r3, r0, 3
	iadd r4, r0, 4
	iadd r0, r0, 1
	setp.lt.s32 p0, r0, 50
	@p0 bra LOOP
	exit
`
	cycles := func(mode arch.DMRMode, qsize int) int64 {
		cfg := oneWarpCfg()
		cfg.DMR = mode
		cfg.ReplayQSize = qsize
		// Multiple warps so the issue slot is contended.
		prog := asm.MustAssemble(src)
		g, err := New(cfg, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		k := &Kernel{Prog: prog, GridX: 1, GridY: 1, BlockX: 256, BlockY: 1}
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	off := cycles(arch.DMROff, 10)
	q0 := cycles(arch.DMRFull, 0)
	q10 := cycles(arch.DMRFull, 10)
	if off > q10 || q10 > q0 {
		t.Errorf("expected off (%d) <= q10 (%d) <= q0 (%d)", off, q10, q0)
	}
	if q0 == off {
		t.Error("pure SP burst with no queue should cost something")
	}
}

// TestRegBankConflicts: reading two registers that live in the same
// bank (r0 and r4 with 4 banks per cluster) delays the dependent
// result by one extra cycle relative to conflict-free operands.
func TestRegBankConflicts(t *testing.T) {
	conflicted := `
.kernel rbc
	mov  r0, 1
	mov  r4, 2
	iadd r1, r0, r4     ; r0 and r4 share bank 0
	iadd r2, r1, r1
	exit
`
	clean := `
.kernel rbc2
	mov  r0, 1
	mov  r5, 2
	iadd r1, r0, r5     ; banks 0 and 1
	iadd r2, r1, r1
	exit
`
	run := func(src string, model bool) (int64, int64) {
		cfg := oneWarpCfg()
		cfg.ModelRegBankConflicts = model
		g, k := launch(t, cfg, src, nil)
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, st.RegBankConflicts
	}
	cycC, nC := run(conflicted, true)
	cycF, nF := run(clean, true)
	if nC != 1 || nF != 0 {
		t.Errorf("conflict counts = %d/%d, want 1/0", nC, nF)
	}
	if cycC <= cycF {
		t.Errorf("bank conflict should add latency: %d vs %d", cycC, cycF)
	}
	cycOff, nOff := run(conflicted, false)
	if nOff != 0 || cycOff != cycF {
		t.Errorf("disabled model should match conflict-free timing: %d vs %d", cycOff, cycF)
	}
}

// TestSchedulerPolicies: GTO and LRR must agree on results; GTO keeps
// issuing from one warp, so its per-warp bursts are at least as long.
func TestSchedulerPolicies(t *testing.T) {
	src := `
.kernel mix
	mov  r0, %tid.x
	iadd r1, r0, 1
	iadd r2, r0, 2
	iadd r3, r0, 3
	ld.param r4, [0]
	shl  r5, r0, 2
	iadd r5, r4, r5
	st.global [r5], r1
	exit
`
	run := func(pol arch.SchedPolicy) (int64, []uint32) {
		cfg := oneWarpCfg()
		cfg.Sched = pol
		g, k := launch(t, cfg, src, nil)
		buf := g.Mem.MustAlloc(4 * 256)
		k.Params = mem.NewParams(buf)
		k.BlockX = 256
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := g.Mem.ReadWords(buf, 256)
		return st.Cycles, out
	}
	cl, outL := run(arch.SchedLRR)
	cg, outG := run(arch.SchedGTO)
	for i := range outL {
		if outL[i] != outG[i] || outL[i] != uint32(i+1) {
			t.Fatalf("policy changed results at %d: %d vs %d", i, outL[i], outG[i])
		}
	}
	if cl <= 0 || cg <= 0 {
		t.Fatal("bad cycle counts")
	}
}

// TestDualSchedulers: two schedulers with private SP groups must beat
// one scheduler on an SP-bound multi-warp kernel, and the config must
// reject DMR with two schedulers.
func TestDualSchedulers(t *testing.T) {
	src := `
.kernel spbound
	mov  r0, 0
LOOP:
	iadd r1, r0, 1
	iadd r2, r0, 2
	iadd r3, r0, 3
	iadd r0, r0, 1
	setp.lt.s32 p0, r0, 40
	@p0 bra LOOP
	exit
`
	run := func(n int) int64 {
		cfg := oneWarpCfg()
		cfg.NumSchedulers = n
		prog := asm.MustAssemble(src)
		g, err := New(cfg, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		k := &Kernel{Prog: prog, GridX: 1, GridY: 1, BlockX: 512, BlockY: 1}
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	one := run(1)
	two := run(2)
	if two >= one {
		t.Errorf("dual schedulers (%d cycles) should beat one (%d) on SP-bound code", two, one)
	}

	bad := arch.PaperConfig()
	bad.NumSchedulers = 2
	bad.DMR = arch.DMRFull
	if err := bad.Validate(); err == nil {
		t.Error("DMR with two schedulers must be rejected")
	}
}

// TestValidateDeclaredBlock: a launch wider than the program's .block
// declaration escapes what the static verifier proved, so Validate
// rejects it; launching narrower than declared is fine.
func TestValidateDeclaredBlock(t *testing.T) {
	prog := asm.MustAssemble(".kernel k\n.block 64\n\tmov r0, 1\n\texit\n")
	cfg := arch.PaperConfig()
	ok := &Kernel{Prog: prog, GridX: 1, GridY: 1, BlockX: 32, BlockY: 1}
	if err := ok.Validate(cfg); err != nil {
		t.Fatalf("narrower launch rejected: %v", err)
	}
	wide := &Kernel{Prog: prog, GridX: 1, GridY: 1, BlockX: 128, BlockY: 1}
	if err := wide.Validate(cfg); err == nil {
		t.Error("launch wider than the declared .block accepted")
	}
}

// TestValidateBlockCapacity: a block with more threads than the SM
// holds is rejected with its exact thread count, also when BlockX *
// BlockY overflows int.
func TestValidateBlockCapacity(t *testing.T) {
	prog := asm.MustAssemble(".kernel k\n\texit\n")
	cfg := arch.PaperConfig()
	for _, tc := range []struct {
		bx, by int
		want   string // "" when the block fits
	}{
		{1024, 1, ""},
		{1, 1024, ""},
		{32, 32, ""},
		{4096, 1, "sim: block of 4096 threads exceeds SM capacity 1024"},
		{64, 32, "sim: block of 2048 threads exceeds SM capacity 1024"},
		{1 << 32, 1 << 32, "sim: block of 18446744073709551616 threads exceeds SM capacity 1024"},
		{1 << 62, 4, "sim: block of 18446744073709551616 threads exceeds SM capacity 1024"},
	} {
		k := &Kernel{Prog: prog, GridX: 1, GridY: 1, BlockX: tc.bx, BlockY: tc.by}
		err := k.Validate(cfg)
		if (err == nil) != (tc.want == "") || (err != nil && err.Error() != tc.want) {
			t.Errorf("block %dx%d: Validate = %v, want %q", tc.bx, tc.by, err, tc.want)
		}
	}
}

// TestStopOnError: with StopOnError set, the first comparator mismatch
// aborts the launch with ErrErrorDetected (the paper's raise-an-
// exception handling for permanent faults).
func TestStopOnError(t *testing.T) {
	src := `
.kernel work
	mov  r0, %tid.x
	iadd r1, r0, 1
	iadd r2, r1, 2
	iadd r3, r2, 3
	exit
`
	cfg := oneWarpCfg()
	cfg.DMR = arch.DMRFull
	g, k := launch(t, cfg, src, nil)
	hook := stuckLaneHook{lane: 3}
	_, err := g.Launch(k, LaunchOpts{Fault: hook, StopOnError: true})
	if err == nil {
		t.Fatal("expected the launch to abort")
	}
	if !errorsIs(err, ErrErrorDetected) {
		t.Fatalf("error %v does not wrap ErrErrorDetected", err)
	}
	// Without StopOnError the same run completes, counting detections.
	g2, k2 := launch(t, cfg, src, nil)
	st, err := g2.Launch(k2, LaunchOpts{Fault: hook})
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultsDetected == 0 {
		t.Error("fault not detected")
	}
}

type stuckLaneHook struct{ lane int }

func (stuckLaneHook) CanFire(int) bool { return true }

func (h stuckLaneHook) Perturb(sm int, cyc int64, lane int, u isa2.UnitClass, golden uint32) (uint32, bool) {
	if lane == h.lane && u == isa2.UnitSP {
		return golden | 1<<30, golden&(1<<30) == 0
	}
	return golden, false
}

// smRecordingHook corrupts lane 0's SP results on the SMs it claims
// and records every SM it is asked about.
type smRecordingHook struct {
	fires  map[int]bool // SM -> CanFire answer
	called map[int]bool // SMs Perturb was called for
}

func (h *smRecordingHook) CanFire(sm int) bool { return h.fires[sm] }

func (h *smRecordingHook) Perturb(sm int, _ int64, lane int, u isa2.UnitClass, golden uint32) (uint32, bool) {
	h.called[sm] = true
	if h.fires[sm] && lane == 0 && u == isa2.UnitSP {
		return golden ^ 1<<20, true
	}
	return golden, false
}

// TestFaultHookWiredPerSM: only the SMs a hook says it can fire on get
// a perturb path; the others run as if fault-free, and a hook that can
// fire nowhere leaves the launch's Stats identical to a fault-free one.
func TestFaultHookWiredPerSM(t *testing.T) {
	src := `
.kernel work
	mov  r0, %tid.x
	iadd r1, r0, 1
	iadd r2, r1, 2
	exit
`
	cfg := arch.WarpedDMRConfig()
	cfg.NumSMs = 4
	run := func(hook FaultHook) *stats.Stats {
		g, k := launch(t, cfg, src, func(_ *GPU, k *Kernel) { k.GridX = 4 })
		opts := LaunchOpts{}
		if hook != nil {
			opts.Fault = hook
		}
		st, err := g.Launch(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	clean := run(nil)

	one := &smRecordingHook{fires: map[int]bool{2: true}, called: map[int]bool{}}
	st := run(one)
	if len(one.called) != 1 || !one.called[2] {
		t.Errorf("Perturb called for SMs %v, want only SM 2", one.called)
	}
	if st.FaultsActivated == 0 || st.FaultsDetected == 0 {
		t.Errorf("fault on SM 2 activated %d, detected %d; want both > 0", st.FaultsActivated, st.FaultsDetected)
	}

	none := &smRecordingHook{fires: map[int]bool{}, called: map[int]bool{}}
	if st := run(none); len(none.called) != 0 || !reflect.DeepEqual(st, clean) {
		t.Errorf("hook that fires nowhere: Perturb called for %v, stats equal to fault-free: %v",
			none.called, reflect.DeepEqual(st, clean))
	}
}

// TestTraceSink: every issued instruction reaches the trace sink, in
// non-decreasing cycle order.
func TestTraceSink(t *testing.T) {
	src := `
.kernel traced
	mov  r0, %tid.x
	iadd r1, r0, 1
	shl  r2, r0, 2
	st.shared [r2], r1
	exit
`
	cfg := oneWarpCfg()
	g, k := launch(t, cfg, src, nil)
	k.SharedBytes = 256
	ring := trace.NewRing(64)
	st, err := g.Launch(k, LaunchOpts{Trace: ring})
	if err != nil {
		t.Fatal(err)
	}
	es := ring.Events()
	if int64(len(es)) != st.WarpInstrs {
		t.Fatalf("traced %d events, issued %d instrs", len(es), st.WarpInstrs)
	}
	var last int64 = -1
	stores := 0
	for _, e := range es {
		if e.Cycle < last {
			t.Fatal("trace out of order")
		}
		last = e.Cycle
		if e.Stores {
			stores++
		}
	}
	if stores != 1 {
		t.Errorf("traced %d stores, want 1", stores)
	}
}

// TestCacheLocalitySpeedsUp: re-reading the same small array is much
// faster with caches than without, and records plausible hit rates.
func TestCacheLocalitySpeedsUp(t *testing.T) {
	src := `
.kernel reread
	ld.param r0, [0]
	mov  r1, %tid.x
	shl  r1, r1, 2
	iadd r1, r0, r1
	mov  r2, 0
LOOP:
	ld.global r3, [r1]
	iadd r4, r4, r3
	iadd r2, r2, 1
	setp.lt.s32 p0, r2, 20
	@p0 bra LOOP
	exit
`
	run := func(model bool) (int64, int64, int64) {
		cfg := oneWarpCfg()
		cfg.ModelCaches = model
		g, k := launch(t, cfg, src, nil)
		buf := g.Mem.MustAlloc(4 * 32)
		k.Params = mem.NewParams(buf)
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles, st.L1Hits, st.L1Misses
	}
	cold, _, _ := run(false)
	warm, hits, misses := run(true)
	if warm >= cold {
		t.Errorf("caches should speed up re-reads: %d vs %d cycles", warm, cold)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("expected both hits and misses, got %d/%d", hits, misses)
	}
	// 20 iterations over one segment: 1 compulsory miss, 19 hits.
	if hits != 19 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 19/1", hits, misses)
	}
}

// TestStoreInvalidatesL1: a store between two loads of the same line
// forces the second load back out to memory (write-through + L1
// invalidate), so it must not hit L1.
func TestStoreInvalidatesL1(t *testing.T) {
	src := `
.kernel wr
	ld.param r0, [0]
	ld.global r1, [r0]      ; miss, install
	st.global [r0], r1      ; write-through, invalidate
	ld.global r2, [r0]      ; must miss L1 again (hits L2)
	exit
`
	cfg := oneWarpCfg()
	g, k := launch(t, cfg, src, nil)
	buf := g.Mem.MustAlloc(64)
	k.Params = mem.NewParams(buf)
	st, err := g.Launch(k, LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.L1Hits != 0 {
		t.Errorf("L1 hits = %d, want 0 (store must invalidate)", st.L1Hits)
	}
	if st.L2Hits == 0 {
		t.Error("second load should hit L2")
	}
}

// TestAtomicsGoThroughL2: atomics never install L1 lines.
func TestAtomicsGoThroughL2(t *testing.T) {
	src := `
.kernel at
	ld.param r0, [0]
	mov  r1, 1
	atom.add.global r2, [r0], r1
	atom.add.global r3, [r0], r1
	exit
`
	cfg := oneWarpCfg()
	g, k := launch(t, cfg, src, nil)
	buf := g.Mem.MustAlloc(4)
	k.Params = mem.NewParams(buf)
	st, err := g.Launch(k, LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st.L1Hits != 0 && st.L1Misses != 0 {
		t.Error("atomics must bypass the L1")
	}
	if st.L2Hits == 0 {
		t.Error("second atomic should hit L2")
	}
	v, _ := g.Mem.Load32(buf)
	if v != 64 { // 32 lanes x 2 atomics
		t.Errorf("counter = %d, want 64", v)
	}
}

// TestRegisterFileLimitsOccupancy: a register-hungry kernel fits fewer
// resident blocks per SM, so a many-block launch takes longer than the
// same launch with a small register footprint.
func TestRegisterFileLimitsOccupancy(t *testing.T) {
	// 60 registers per thread: 256 threads * 60 * 4B = 61KB -> one
	// block per SM on a 64KB register file.
	fat := `
.kernel fat
.reg 60
	mov  r59, 0
LOOP:
	iadd r59, r59, 1
	setp.lt.s32 p0, r59, 30
	@p0 bra LOOP
	exit
`
	lean := `
.kernel lean
.reg 4
	mov  r3, 0
LOOP:
	iadd r3, r3, 1
	setp.lt.s32 p0, r3, 30
	@p0 bra LOOP
	exit
`
	run := func(src string) int64 {
		cfg := oneWarpCfg()
		// Small register file so the fat kernel fits only two resident
		// 32-thread blocks while the lean one fits all eight; the
		// dependent loop then exposes the lost latency hiding.
		cfg.RegFileBytes = 16 * 1024
		prog := asm.MustAssemble(src)
		g, err := New(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := &Kernel{Prog: prog, GridX: 8, GridY: 1, BlockX: 32, BlockY: 1}
		st, err := g.Launch(k, LaunchOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return st.Cycles
	}
	if fatC, leanC := run(fat), run(lean); fatC <= leanC {
		t.Errorf("register pressure should serialize blocks: fat %d vs lean %d cycles", fatC, leanC)
	}
}
