package core

import (
	"testing"
	"testing/quick"

	"warped/internal/arch"
	"warped/internal/exec"
	"warped/internal/isa"
	"warped/internal/simt"
	"warped/internal/stats"
)

// TestPriorityTableMatchesPaper checks the 4-lane table against the
// paper's Table 1, verbatim.
func TestPriorityTableMatchesPaper(t *testing.T) {
	want := [4][4]int{
		{0, 1, 2, 3}, // MUX0
		{1, 0, 3, 2}, // MUX1
		{2, 3, 0, 1}, // MUX2
		{3, 2, 1, 0}, // MUX3
	}
	pt := NewPriorityTable(4)
	for mux := 0; mux < 4; mux++ {
		for prio := 0; prio < 4; prio++ {
			if got := pt.Order(mux)[prio]; got != want[mux][prio] {
				t.Errorf("MUX%d priority %d = %d, want %d (paper Table 1)",
					mux, prio+1, got, want[mux][prio])
			}
		}
	}
}

func TestPriorityTableFirstPriorityIsSelf(t *testing.T) {
	for _, size := range []int{2, 4, 8, 16} {
		pt := NewPriorityTable(size)
		for mux := 0; mux < size; mux++ {
			if pt.Order(mux)[0] != mux {
				t.Errorf("size %d MUX%d first priority is %d, not itself",
					size, mux, pt.Order(mux)[0])
			}
		}
	}
}

func TestPriorityTableRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for cluster size 3")
		}
	}()
	NewPriorityTable(3)
}

func TestPairClusterExamples(t *testing.T) {
	pt := NewPriorityTable(4)
	cases := []struct {
		busy    uint32
		pairs   map[int]int // idle mux -> verified lane
		covered int
	}{
		// The paper's Fig. 6 example: active mask 0011 -> lanes 2,3 DMR lanes 0,1.
		{0b0011, map[int]int{2: 0, 3: 1}, 2},
		// One active lane: all three idle lanes redundantly execute it
		// (more than dual redundancy, explicitly allowed by the paper).
		{0b0001, map[int]int{1: 0, 2: 0, 3: 0}, 1},
		// Alternating lanes.
		{0b0101, map[int]int{1: 0, 3: 2}, 2},
		{0b1010, map[int]int{0: 1, 2: 3}, 2},
		// Three active: the single idle MUX covers one of them.
		{0b0111, map[int]int{3: 2}, 1},
		// Full or empty cluster: nothing to pair.
		{0b1111, nil, 0},
		{0b0000, nil, 0},
	}
	for _, c := range cases {
		pairs := pt.PairCluster(c.busy)
		if len(pairs) != len(c.pairs) {
			t.Errorf("busy %04b: %d pairings, want %d", c.busy, len(pairs), len(c.pairs))
			continue
		}
		covered := map[int]bool{}
		for _, p := range pairs {
			if want, ok := c.pairs[p.Idle]; !ok || want != p.Active {
				t.Errorf("busy %04b: MUX%d verifies lane %d, want %v", c.busy, p.Idle, p.Active, c.pairs)
			}
			covered[p.Active] = true
		}
		if len(covered) != c.covered {
			t.Errorf("busy %04b: covered %d lanes, want %d", c.busy, len(covered), c.covered)
		}
	}
}

// Property: pairings are always idle-verifies-busy, and any cluster
// with at least one busy and one idle lane gets at least one pairing.
func TestPairClusterPropertiesQuick(t *testing.T) {
	for _, size := range []int{4, 8} {
		pt := NewPriorityTable(size)
		full := uint32(1)<<size - 1
		f := func(busyRaw uint32) bool {
			busy := busyRaw & full
			pairs := pt.PairCluster(busy)
			for _, p := range pairs {
				if busy&(1<<p.Idle) != 0 {
					return false // verifier must be idle
				}
				if busy&(1<<p.Active) == 0 {
					return false // verified lane must be busy
				}
			}
			hasBusy := busy != 0
			hasIdle := busy != full
			if hasBusy && hasIdle && len(pairs) == 0 {
				return false // opportunity wasted
			}
			// Every idle lane must find a partner when any lane is busy.
			if hasBusy && len(pairs) != size-popcount(busy) {
				return false
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestPairWarpCoversAcrossClusters(t *testing.T) {
	pt := NewPriorityTable(4)
	// 16 contiguous lanes active: clusters 0-3 full (uncoverable),
	// 4-7 idle (no work).
	pairs, covered := pt.PairWarp(simt.Mask(0x0000FFFF), 32)
	if len(pairs) != 0 || covered != 0 {
		t.Errorf("contiguous half-warp: pairs=%d covered=%d, want 0,0 (cluster-locality limit)",
			len(pairs), covered)
	}
	// Same 16 threads spread 2-per-cluster: fully coverable.
	var spread simt.Mask
	for c := 0; c < 8; c++ {
		spread |= 0b0011 << uint(4*c)
	}
	_, covered = pt.PairWarp(spread, 32)
	if covered != 16 {
		t.Errorf("spread half-warp covered %d, want 16", covered)
	}
}

func TestShuffleLane(t *testing.T) {
	for phase := 0; phase < 10; phase++ {
		for lane := 0; lane < 32; lane++ {
			v := ShuffleLane(lane, 4, phase)
			if v == lane {
				t.Fatalf("phase %d: lane %d shuffled to itself (hidden-error hazard)", phase, lane)
			}
			if v/4 != lane/4 {
				t.Fatalf("phase %d: lane %d shuffled outside its cluster to %d", phase, lane, v)
			}
		}
	}
	// Cluster size 1 has nowhere to shuffle to.
	if ShuffleLane(5, 1, 3) != 5 {
		t.Error("cluster size 1 must return the original lane")
	}
}

// --- Engine tests ---

// decode compiles in as a one-instruction program and returns its
// pre-decoded form, which every record the engine sees carries.
func decode(in isa.Instr) *exec.Decoded {
	in.Pred = isa.AlwaysPred()
	comp, err := exec.Compile(&isa.Program{Name: "t", Instrs: []isa.Instr{in}, NumRegs: isa.MaxGPR})
	if err != nil {
		panic(err)
	}
	return &comp.Code()[0]
}

func fullRec(op isa.Opcode, dst isa.Reg, srcs ...isa.Reg) *exec.Record {
	in := isa.Instr{Op: op, Dst: dst}
	for i, s := range srcs {
		in.Src[i] = isa.RegOp(s)
	}
	return &exec.Record{Dec: decode(in), Active: simt.FullMask(32), Executing: simt.FullMask(32)}
}

func partialRec(op isa.Opcode, mask simt.Mask) *exec.Record {
	return &exec.Record{Dec: decode(isa.Instr{Op: op, Dst: 1}), Active: mask, Executing: mask}
}

// engineFor builds an engine the way a launch does, with the policy
// compiled from cfg and no instrument set.
func engineFor(cfg arch.Config, st *stats.Stats, perturb PerturbPhys, onError func(ErrorEvent)) *Engine {
	return NewEngine(cfg, 0, st, CompilePolicy(cfg.Policy, "t"), nil, perturb, onError)
}

func newEngine(t *testing.T, mut func(*arch.Config)) (*Engine, *stats.Stats) {
	t.Helper()
	cfg := arch.WarpedDMRConfig()
	if mut != nil {
		mut(&cfg)
	}
	st := &stats.Stats{}
	return engineFor(cfg, st, nil, nil), st
}

// TestPhysMask: the engine maps executing thread slots to the physical
// lanes the RFU pairs, under the configured thread->core mapping.
func TestPhysMask(t *testing.T) {
	mk := func(m arch.MappingPolicy) *Engine {
		cfg := arch.PaperConfig()
		cfg.Mapping = m
		return engineFor(cfg, &stats.Stats{}, nil, nil)
	}
	m := simt.Mask(0x0000000F)
	if mk(arch.MapLinear).physLanes(m) != m {
		t.Error("linear mapping must be identity")
	}
	e := mk(arch.MapClusterRR)
	// Threads 0..3 go to clusters 0..3, slot 0: lanes 0,4,8,12.
	want := simt.Mask(1 | 1<<4 | 1<<8 | 1<<12)
	if got := e.physLanes(m); got != want {
		t.Errorf("physLanes = %08x, want %08x", got, want)
	}
	// Property: popcount preserved for random masks.
	for _, m := range []simt.Mask{0, 0xFFFFFFFF, 0x12345678, 0x80000001} {
		if e.physLanes(m).Count() != m.Count() {
			t.Errorf("physLanes changed popcount for %08x", m)
		}
	}
}

func TestEngineOffDoesNothing(t *testing.T) {
	e, st := newEngine(t, func(c *arch.Config) { c.DMR = arch.DMROff })
	for i := 0; i < 10; i++ {
		if s := e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 1, 2, 3), WarpGID: 1}); s != 0 {
			t.Fatal("DMR-off engine stalled")
		}
	}
	if st.EligibleTI != 0 || st.VerifiedInter != 0 {
		t.Error("DMR-off engine recorded verifications")
	}
}

func TestEngineTypeSwitchCoexecutesFree(t *testing.T) {
	e, st := newEngine(t, nil)
	// SP then LDST: the SP instruction verifies for free next cycle.
	if s := e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 1), WarpGID: 1}); s != 0 {
		t.Fatal("first issue stalled")
	}
	if s := e.Issue(IssueInfo{Rec: fullRec(isa.OpLD, 2, 3), WarpGID: 1}); s != 0 {
		t.Fatal("type switch must not stall")
	}
	if st.ReplayCoexec != 1 {
		t.Errorf("coexec = %d, want 1", st.ReplayCoexec)
	}
	if st.VerifiedInter != 32 {
		t.Errorf("verified = %d, want 32", st.VerifiedInter)
	}
	if e.QueueLen() != 0 {
		t.Error("queue should be empty")
	}
}

func TestEngineSameTypeEnqueues(t *testing.T) {
	e, st := newEngine(t, nil)
	w := func() IssueInfo {
		return IssueInfo{Rec: fullRec(isa.OpIADD, 1), WarpGID: 1}
	}
	e.Issue(w())
	e.Issue(w()) // same type: first one must be buffered
	if e.QueueLen() != 1 || st.ReplayEnq != 1 {
		t.Errorf("queue=%d enq=%d, want 1,1", e.QueueLen(), st.ReplayEnq)
	}
}

func TestEngineFullQueueStalls(t *testing.T) {
	e, st := newEngine(t, func(c *arch.Config) { c.ReplayQSize = 2; c.IdleDrain = false })
	w := func(dst isa.Reg) IssueInfo {
		return IssueInfo{Rec: fullRec(isa.OpIADD, dst), WarpGID: 1}
	}
	stalls := 0
	// A long same-type burst with a tiny queue must hit the eager
	// re-execution stall path once the queue fills.
	for i := 0; i < 10; i++ {
		stalls += e.Issue(w(isa.Reg(10 + i%4)))
	}
	if stalls == 0 || st.StallReplayQFull == 0 {
		t.Errorf("burst produced no stalls (stalls=%d counter=%d)", stalls, st.StallReplayQFull)
	}
	if e.QueueLen() > 2 {
		t.Errorf("queue grew past capacity: %d", e.QueueLen())
	}
}

func TestEngineQueueNeverExceedsCapacityQuick(t *testing.T) {
	ops := []isa.Opcode{isa.OpIADD, isa.OpFMUL, isa.OpLD, isa.OpFSIN, isa.OpST}
	f := func(seq []uint8, qsize uint8) bool {
		cap := int(qsize % 12)
		cfg := arch.WarpedDMRConfig()
		cfg.ReplayQSize = cap
		e := engineFor(cfg, &stats.Stats{}, nil, nil)
		for i, b := range seq {
			rec := fullRec(ops[int(b)%len(ops)], isa.Reg(int(b)%8), isa.Reg(8+i%8))
			e.Issue(IssueInfo{Rec: rec, WarpGID: i % 4})
			if e.QueueLen() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEngineRAWForcesVerification(t *testing.T) {
	e, st := newEngine(t, func(c *arch.Config) { c.IdleDrain = false })
	// Producer writes r5 and gets buffered (same-type follower).
	prod := fullRec(isa.OpIADD, 5, 1, 2)
	e.Issue(IssueInfo{Rec: prod, WarpGID: 7})
	e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 6, 1, 2), WarpGID: 7})
	if e.QueueLen() != 1 {
		t.Fatalf("producer not buffered (queue=%d)", e.QueueLen())
	}
	// Consumer reads r5 in the same warp: must stall and flush it.
	cons := fullRec(isa.OpIADD, 8, 5, 1)
	stall := e.Issue(IssueInfo{Rec: cons, WarpGID: 7})
	if stall == 0 || st.StallRAWUnverif != 1 {
		t.Errorf("RAW on unverified producer: stall=%d counter=%d", stall, st.StallRAWUnverif)
	}
	// A different warp reading r5 must NOT trigger the flush.
	e2, st2 := newEngine(t, func(c *arch.Config) { c.IdleDrain = false })
	e2.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 5, 1, 2), WarpGID: 7})
	e2.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 6, 1, 2), WarpGID: 7})
	e2.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 8, 5, 1), WarpGID: 9})
	if st2.StallRAWUnverif != 0 {
		t.Error("cross-warp read flushed another warp's producer")
	}
}

func TestEngineIdleCycleDrains(t *testing.T) {
	e, st := newEngine(t, nil)
	e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 1), WarpGID: 1})
	e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 2), WarpGID: 1})
	// One entry queued + one pending. Two idle cycles clear both.
	e.IdleCycle(100)
	e.IdleCycle(100)
	if e.QueueLen() != 0 {
		t.Errorf("queue not drained on idle: %d", e.QueueLen())
	}
	if st.VerifiedInter != 64 {
		t.Errorf("verified = %d, want 64", st.VerifiedInter)
	}
}

func TestEngineDrainAtKernelEnd(t *testing.T) {
	e, st := newEngine(t, nil)
	for i := 0; i < 5; i++ {
		e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, isa.Reg(i)), WarpGID: 1})
	}
	cycles := e.Drain(100)
	if cycles == 0 {
		t.Error("drain consumed no cycles")
	}
	if e.QueueLen() != 0 {
		t.Error("drain left entries behind")
	}
	// Every one of the 5 instructions must be verified by now.
	if st.VerifiedInter != 5*32 {
		t.Errorf("verified = %d, want %d", st.VerifiedInter, 5*32)
	}
}

func TestEngineIntraWarpCoverage(t *testing.T) {
	e, st := newEngine(t, func(c *arch.Config) { c.Mapping = arch.MapLinear })
	// 2 active lanes per cluster: every active lane coverable.
	var mask simt.Mask
	for c := 0; c < 8; c++ {
		mask |= 0b0101 << uint(4*c)
	}
	e.Issue(IssueInfo{Rec: partialRec(isa.OpIADD, mask), WarpGID: 1})
	if st.VerifiedIntra != 16 {
		t.Errorf("intra verified = %d, want 16", st.VerifiedIntra)
	}
	if st.EligibleTI != 16 {
		t.Errorf("eligible = %d, want 16", st.EligibleTI)
	}
	// Partial warps must not enter the ReplayQ (paper §4.3).
	if e.QueueLen() != 0 {
		t.Error("partial warp entered the ReplayQ")
	}
}

func TestEngineCoverageFormula(t *testing.T) {
	// Paper §3.3: with active <= half the warp, coverage is 100%;
	// the RR mapping realizes this for contiguous masks.
	e, st := newEngine(t, nil) // clusterRR
	logical := simt.FullMask(16)
	cfg := arch.WarpedDMRConfig()
	var phys simt.Mask
	for th := 0; th < 16; th++ {
		phys |= 1 << uint(cfg.LaneForThread(th))
	}
	e.Issue(IssueInfo{Rec: partialRec(isa.OpIADD, logical), WarpGID: 1})
	if st.VerifiedIntra != 16 {
		t.Errorf("16 contiguous threads under RR: verified %d, want 16", st.VerifiedIntra)
	}
}

func TestEngineDMTRReplaysEverything(t *testing.T) {
	e, st := newEngine(t, func(c *arch.Config) { c.DMR = arch.DMRTemporalAll })
	half := simt.Mask(0x0000FFFF)
	e.Issue(IssueInfo{Rec: partialRec(isa.OpIADD, half), WarpGID: 1})
	stall := e.Issue(IssueInfo{Rec: partialRec(isa.OpIADD, half), WarpGID: 1})
	// DMTR has no queue: same-type back-to-back must stall.
	if stall != 1 || st.StallReplayQFull != 1 {
		t.Errorf("DMTR same-type: stall=%d counter=%d, want 1,1", stall, st.StallReplayQFull)
	}
	if st.VerifiedIntra != 0 {
		t.Error("DMTR must not use intra-warp DMR")
	}
	if st.VerifiedInter != 16 {
		t.Errorf("DMTR verified %d, want 16 (first instr replayed)", st.VerifiedInter)
	}
}

func TestEngineDetectsInjectedFault(t *testing.T) {
	cfg := arch.WarpedDMRConfig()
	st := &stats.Stats{}
	var events []ErrorEvent
	// Fault: physical lane 2 flips bit 0 of every SP result.
	perturb := func(lane int, unit isa.UnitClass, golden uint32) uint32 {
		if lane == 2 && unit == isa.UnitSP {
			return golden ^ 1
		}
		return golden
	}
	e := engineFor(cfg, st, perturb, func(ev ErrorEvent) { events = append(events, ev) })

	// Build a full-warp iadd whose recorded Vals are the FAULTED originals
	// for threads mapped to lane 2.
	rec := fullRec(isa.OpIADD, 1, 2, 3)
	for th := 0; th < 32; th++ {
		rec.SrcVals[0][th] = uint32(th)
		rec.SrcVals[1][th] = 100
		golden := uint32(th) + 100
		rec.Vals[th] = perturb(cfg.LaneForThread(th), isa.UnitSP, golden)
	}
	e.Issue(IssueInfo{Rec: rec, WarpGID: 1})
	e.IdleCycle(100) // verify the pending instruction

	if st.FaultsDetected == 0 || len(events) == 0 {
		t.Fatal("stuck-at fault not detected by temporal replay")
	}
	// Lane shuffling guarantees orig != verif lane for every event.
	for _, ev := range events {
		if ev.OrigLane == ev.VerifLane {
			t.Errorf("replay on the original lane: %+v", ev)
		}
	}
}

func TestEngineHiddenErrorWithoutShuffle(t *testing.T) {
	// With lane shuffling disabled, a lane-local stuck-at produces the
	// same wrong value in both executions — the hidden error the paper
	// warns about.
	cfg := arch.WarpedDMRConfig()
	cfg.LaneShuffle = false
	st := &stats.Stats{}
	perturb := func(lane int, unit isa.UnitClass, golden uint32) uint32 {
		if lane == 2 && unit == isa.UnitSP {
			return golden ^ 1
		}
		return golden
	}
	e := engineFor(cfg, st, perturb, nil)
	rec := fullRec(isa.OpIADD, 1, 2, 3)
	for th := 0; th < 32; th++ {
		rec.SrcVals[0][th] = uint32(th)
		golden := uint32(th)
		rec.Vals[th] = perturb(cfg.LaneForThread(th), isa.UnitSP, golden)
	}
	e.Issue(IssueInfo{Rec: rec, WarpGID: 1})
	e.IdleCycle(100)
	if st.FaultsDetected != 0 {
		t.Error("without shuffling the stuck-at fault should hide (this is the point of lane shuffling)")
	}
}

func TestEngineNarrowWarpUsesIntra(t *testing.T) {
	// A 16-thread block occupies a 32-lane warp: physically half idle,
	// so intra-warp DMR covers it even though the block is "full".
	e, st := newEngine(t, nil)
	mask := simt.FullMask(16)
	cfg := arch.WarpedDMRConfig()
	var phys simt.Mask
	for th := 0; th < 16; th++ {
		phys |= 1 << uint(cfg.LaneForThread(th))
	}
	e.Issue(IssueInfo{Rec: partialRec(isa.OpIADD, mask), WarpGID: 1})
	if st.VerifiedIntra == 0 {
		t.Error("narrow warp must use intra-warp DMR")
	}
	if st.VerifiedInter != 0 && e.QueueLen() != 0 {
		t.Error("narrow warp must not be treated as fully utilized")
	}
}

func TestReplayQSizing(t *testing.T) {
	// Paper §4.3.1: an entry is 514-516 bytes; 10 entries ~ 5 KB, about
	// 4% of the 128 KB register file.
	if ReplayQEntryBytes < 514 || ReplayQEntryBytes > 516 {
		t.Errorf("entry bytes = %d, want 514..516", ReplayQEntryBytes)
	}
	cfg := arch.WarpedDMRConfig()
	st := &stats.Stats{}
	e := engineFor(cfg, st, nil, nil)
	size := e.QueueSizeBytes()
	if size < 5000 || size > 5300 {
		t.Errorf("10-entry ReplayQ = %d bytes, want ~5KB", size)
	}
	ratio := float64(size) / float64(cfg.RegFileBytes)
	if ratio < 0.03 || ratio > 0.05 {
		t.Errorf("ReplayQ/RF ratio = %.3f, want ~0.04", ratio)
	}
}

func TestEngineCtrlResolvesPending(t *testing.T) {
	e, st := newEngine(t, nil)
	e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, 1), WarpGID: 1})
	bra := fullRec(isa.OpBRA, 0)
	e.Issue(IssueInfo{Rec: bra, WarpGID: 1})
	if st.ReplayCoexec != 1 || st.VerifiedInter != 32 {
		t.Error("control instruction should free the units for the pending verify")
	}
}
