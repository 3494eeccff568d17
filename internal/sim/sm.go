// Package sim is the cycle-level timing model of the GPGPU: streaming
// multiprocessors with a single warp scheduler feeding three
// heterogeneous execution-unit groups (SP, SFU, LD/ST), a per-warp
// scoreboard, coalescing/bank-conflict memory costs, block dispatch
// across the chip, and the Warped-DMR engine hooks at the issue stage.
package sim

import (
	"fmt"
	"math/bits"

	"warped/internal/arch"
	"warped/internal/cache"
	"warped/internal/core"
	"warped/internal/exec"
	"warped/internal/isa"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/simt"
	"warped/internal/stats"
	"warped/internal/trace"
)

// FaultHook lets a fault model corrupt computed values. Perturb
// receives the SM, current cycle, physical lane, unit class and golden
// value, and returns the (possibly corrupted) value plus whether it
// changed it.
//
// CanFire reports whether the hook can ever change a value on SM smID.
// The simulator asks once per SM per launch and wires no fault hook
// into SMs that answer false, so their lanes run at fault-free speed:
// the SM's DMR engine counts its replays without recomputing or
// comparing them, because an unperturbed replay always matches. A hook
// that answers false for an SM must leave every value on that SM
// untouched and keep no state about it.
type FaultHook interface {
	Perturb(smID int, cycle int64, physLane int, unit isa.UnitClass, golden uint32) (uint32, bool)
	CanFire(smID int) bool
}

// PCFaultHook is the optional program-targeted extension of FaultHook:
// a hook that also implements it receives the kernel name and the PC of
// the issuing instruction on the primary execution path, so a fault can
// be pinned to one static instruction. The vulncheck experiment uses
// this to corrupt exactly the PCs the static analysis claims are unACE.
// The engine's redundant-execution path keeps calling plain Perturb —
// PC targeting is a property of the architectural instruction stream,
// not of the verification replay.
type PCFaultHook interface {
	FaultHook
	PerturbAt(smID int, cycle int64, kernel string, pc, physLane int, unit isa.UnitClass, golden uint32) (uint32, bool)
}

// warpCtx is one resident warp: architectural state plus scoreboard.
type warpCtx struct {
	ws    exec.WarpState // control, registers, memories
	block *blockCtx
	gid   int // SM-unique warp id

	ready   [isa.MaxGPR]int64 // cycle at which each GPR's pending write lands
	tracked bool              // RAW-distance tracking target (Fig. 8b)
}

// blockCtx is one resident thread block.
type blockCtx struct {
	id        int // linear block index in the grid
	shared    *mem.Shared
	warps     []*warpCtx
	live      int // warps not yet exited
	atBarrier int
	threads   int
	shadow    bool // R-Thread duplicate: global writes suppressed
}

// sm is one streaming multiprocessor.
type sm struct {
	id      int
	cfg     arch.Config
	gpu     *GPU
	st      stats.Stats // plain counters, merged into the launch total at drain
	engine  *core.Engine
	machine *exec.Machine  // per-launch execution machine (pre-decoded stream)
	code    []exec.Decoded // the machine's stream, indexed by PC

	blocks    []*blockCtx
	warps     []*warpCtx // issue candidates, in dispatch (age) order
	rr        [2]int     // per-scheduler round-robin cursors
	greedy    [2]int     // per-scheduler GTO sticky warp (-1 none)
	stall     int        // DMR-induced issue stalls outstanding
	spBusy    [2]int64   // SP group per scheduler (paper: own SPs)
	sfuBusy   int64      // shared across schedulers
	ldstBusy  int64      // shared across schedulers
	threadsIn int        // resident threads
	lastBusy  int64
	l1        *cache.Cache // per-SM L1 data cache (nil when off)
	err       error

	laneFor  [32]uint8  // thread slot -> physical lane (pre-resolved mapping)
	regBanks int        // register banks per SIMT cluster (pre-resolved)
	segBuf   [32]uint32 // scratch for mem.SegmentBases
	issueNow int64      // cycle of the in-flight Machine.Step (fault hook)
	issuePC  int        // PC of the in-flight Machine.Step (PC-targeted faults)
	kName    string     // kernel name, for PCFaultHook targeting

	// Plain tallies of the sim.* and simt.* metrics Stats does not
	// count, published with the machine's and engine's by
	// publishMetrics when the launch returns.
	met         *metrics.Sim // never nil; shared across the launch's SMs
	issueCycles int64
	stallCycles int64
	diverges    int64
	stackDepth  metrics.Tally
}

// launchMetrics are the instrument sets of one launch, resolved once
// and shared by its SMs.
type launchMetrics struct {
	sim  *metrics.Sim
	exec *metrics.Exec
	dmr  *metrics.DMR
}

func newSM(id int, g *GPU, comp *exec.Compiled, fault FaultHook, onError func(core.ErrorEvent), met launchMetrics) *sm {
	s := &sm{
		id: id, cfg: g.Cfg, gpu: g, greedy: [2]int{-1, -1},
		regBanks:   g.Cfg.RegBanksPerCluster(),
		met:        met.sim,
		stackDepth: met.sim.StackDepth.Tally(),
	}
	for t := 0; t < 32; t++ {
		s.laneFor[t] = uint8(g.Cfg.LaneForThread(t))
	}
	if g.Cfg.ModelCaches {
		s.l1 = cache.New(g.Cfg.L1)
	}
	s.kName = comp.Prog().Name
	if fault != nil && !fault.CanFire(id) {
		fault = nil // this SM's lanes can never be touched: run fault-free
	}
	var perturb exec.Perturb
	if fault != nil {
		pcHook, _ := fault.(PCFaultHook)
		perturb = func(thread int, unit isa.UnitClass, golden uint32) uint32 {
			lane := int(s.laneFor[thread])
			var v uint32
			var changed bool
			if pcHook != nil {
				v, changed = pcHook.PerturbAt(s.id, s.issueNow, s.kName, s.issuePC, lane, unit, golden)
			} else {
				v, changed = fault.Perturb(s.id, s.issueNow, lane, unit, golden)
			}
			if changed {
				s.st.FaultsActivated++
			}
			return v
		}
	}
	s.machine = exec.NewMachine(comp, exec.Opts{
		Banks:   g.Cfg.NumSharedBanks,
		Metrics: met.exec,
		Perturb: perturb,
	})
	s.code = s.machine.Code()
	var perturbPhys core.PerturbPhys
	if fault != nil {
		perturbPhys = func(lane int, unit isa.UnitClass, golden uint32) uint32 {
			v, _ := fault.Perturb(id, g.now, lane, unit, golden)
			return v
		}
	}
	s.engine = core.NewEngine(g.Cfg, id, &s.st, perturbPhys, onError)
	s.engine.SetMetrics(met.dmr)
	return s
}

// stats returns the SM's accumulated launch counters.
func (s *sm) stats() *stats.Stats { return &s.st }

// publishMetrics adds the SM's launch to the shared instrument sets:
// its own tallies, the counters that equal a Stats field (read from
// the SM's Stats), then the machine's and the engine's. The launch
// calls it once per SM on every return path, so the hot loop never
// touches a shared atomic.
func (s *sm) publishMetrics() {
	m := s.met
	m.IssueCycles.Add(s.issueCycles)
	m.IdleCycles.Add(s.st.IdleIssueSlots)
	m.StallCycles.Add(s.stallCycles)
	m.WarpInstrs.Add(s.st.WarpInstrs)
	m.StackDepth.Publish(&s.stackDepth)
	m.DivergeEvents.Add(s.diverges)
	s.machine.FlushMetrics()
	s.engine.FlushMetrics()
}

// canHost reports whether the SM has capacity for another block:
// block slots, thread contexts, register file, and shared memory all
// bound occupancy, exactly the factors that bound it on hardware.
func (s *sm) canHost(k *Kernel) bool {
	if len(s.blocks) >= s.cfg.MaxBlocksPerSM {
		return false
	}
	if s.threadsIn+k.ThreadsPerBlock() > s.cfg.MaxThreadsPerSM {
		return false
	}
	// Register-file pressure: resident threads x registers x 4 bytes.
	if s.cfg.RegFileBytes > 0 {
		need := (s.threadsIn + k.ThreadsPerBlock()) * k.Prog.NumRegs * 4
		if need > s.cfg.RegFileBytes {
			return false
		}
	}
	if k.SharedBytes > 0 {
		used := 0
		for _, b := range s.blocks {
			used += b.shared.Size()
		}
		if used+k.SharedBytes > s.cfg.SharedMemBytes {
			return false
		}
	}
	return true
}

// host installs a block on the SM, building its warps and registers.
// Register state is one struct-of-arrays slab per block (exec.RegFile),
// carved into per-warp views.
func (s *sm) host(k *Kernel, blockID int, trackRAWWarp bool) {
	threads := k.ThreadsPerBlock()
	shared := k.SharedBytes
	if shared == 0 {
		shared = 4 // placeholder so Size() accounting stays sane
	}
	logical := blockID
	shadow := false
	if n := k.NumBlocks(); k.ShadowGrid && blockID >= n {
		logical, shadow = blockID-n, true
	}
	b := &blockCtx{id: logical, shared: mem.NewShared(shared), threads: threads, shadow: shadow}
	nWarps := (threads + s.cfg.WarpSize - 1) / s.cfg.WarpSize
	rf := exec.NewRegFile(nWarps, k.Prog.NumRegs)
	for wi := 0; wi < nWarps; wi++ {
		width := s.cfg.WarpSize
		if rem := threads - wi*s.cfg.WarpSize; rem < width {
			width = rem
		}
		wc := &warpCtx{
			ws: exec.WarpState{
				Ctl:  simt.NewWarp(wi, blockID, width),
				Regs: rf.Warp(wi),
				Mem:  exec.Mem{Global: s.gpu.Mem, Shared: b.shared, Params: k.Params, Shadow: shadow},
			},
			block: b,
			gid:   s.gpu.nextWarpGID(),
		}
		s.fillSpecials(k, wc, logical, wi, width)
		// Fig. 8b tracks "warp1 thread 32" = warp index 1. Fall back to
		// warp 0 for single-warp blocks (the paper does this for SHA).
		if trackRAWWarp && !shadow && logical == s.gpu.trackBlock && wi == s.gpu.trackWarp {
			wc.tracked = true
		}
		b.warps = append(b.warps, wc)
		s.warps = append(s.warps, wc)
	}
	b.live = len(b.warps)
	s.blocks = append(s.blocks, b)
	s.threadsIn += threads
}

func (s *sm) fillSpecials(k *Kernel, wc *warpCtx, blockID, warpIdx, width int) {
	var tidx, tidy, ntidx, ntidy, ctaidx, ctaidy, nctaidx, nctaidy, laneid, warpid [32]uint32
	bx := blockID % k.GridX
	by := blockID / k.GridX
	for lane := 0; lane < width; lane++ {
		t := warpIdx*s.cfg.WarpSize + lane
		tidx[lane] = uint32(t % k.BlockX)
		tidy[lane] = uint32(t / k.BlockX)
		ntidx[lane] = uint32(k.BlockX)
		ntidy[lane] = uint32(k.BlockY)
		ctaidx[lane] = uint32(bx)
		ctaidy[lane] = uint32(by)
		nctaidx[lane] = uint32(k.GridX)
		nctaidy[lane] = uint32(k.GridY)
		laneid[lane] = uint32(lane)
		warpid[lane] = uint32(warpIdx)
	}
	r := wc.ws.Regs
	r.SetSpecial(isa.RegTIDX, tidx)
	r.SetSpecial(isa.RegTIDY, tidy)
	r.SetSpecial(isa.RegNTIDX, ntidx)
	r.SetSpecial(isa.RegNTIDY, ntidy)
	r.SetSpecial(isa.RegCTAIDX, ctaidx)
	r.SetSpecial(isa.RegCTAIDY, ctaidy)
	r.SetSpecial(isa.RegNCTAIDX, nctaidx)
	r.SetSpecial(isa.RegNCTAIDY, nctaidy)
	r.SetSpecial(isa.RegLANEID, laneid)
	r.SetSpecial(isa.RegWARPID, warpid)
}

// issuable reports whether wc can issue at cycle now on scheduler sched.
// It consults the pre-decoded stream, so the scan over candidates does
// no per-instruction decoding or allocation.
func (s *sm) issuable(wc *warpCtx, sched int, now int64) bool {
	if wc.ws.Ctl.Done() || wc.ws.Ctl.AtBarrier {
		return false
	}
	d := &s.code[wc.ws.Ctl.PC()]
	switch d.Unit {
	case isa.UnitSP:
		if s.spBusy[sched] > now {
			return false
		}
	case isa.UnitSFU:
		if s.sfuBusy > now {
			return false
		}
	case isa.UnitLDST:
		if s.ldstBusy > now {
			return false
		}
	case isa.UnitCTRL:
		// Control ops need no execution-unit port; issue eligibility is
		// decided by the DRAM/barrier checks below alone.
	}
	// Global accesses stall while the DRAM bandwidth bucket is in debt
	// (cache hits never create debt, so they pass freely).
	if d.Unit == isa.UnitLDST && d.Space != isa.SpaceShared && d.Space != isa.SpaceParam &&
		s.gpu.dramTokens < 0 {
		return false
	}
	// Scoreboard: RAW on sources, WAW on destination.
	for i := 0; i < int(d.NumReads); i++ {
		if wc.ready[d.ReadRegs[i]] > now {
			return false
		}
	}
	if d.HasDst && wc.ready[d.Dst] > now {
		return false
	}
	return true
}

// regBankConflictCycles counts the extra register-fetch cycles for an
// instruction whose source registers collide in the same bank. Each
// bank holds one 128-bit entry per register name, interleaved
// register-number mod banks-per-cluster (after [8]); distinct registers
// in the same bank serialize their fetches, which the operand buffer
// hides from the pipeline but which still delays the result.
func (s *sm) regBankConflictCycles(d *exec.Decoded) int64 {
	if !s.cfg.ModelRegBankConflicts {
		return 0
	}
	// At most three source registers: pairwise comparison beats clearing
	// per-bank scratch arrays on every instruction.
	banks := s.regBanks
	extra := int64(0)
	n := int(d.NumReads)
	for i := 1; i < n; i++ {
		ri := int(d.ReadRegs[i])
		dup, conflict := false, false
		for j := 0; j < i; j++ {
			rj := int(d.ReadRegs[j])
			if rj == ri {
				dup = true // same register feeds multiple operands: one fetch
				break
			}
			if rj%banks == ri%banks {
				conflict = true
			}
		}
		if !dup && conflict {
			extra++
		}
	}
	return extra
}

// latency returns the writeback latency for an executed record.
// Memory costs (latency, DRAM bandwidth, cache effects) are handled by
// memCosts at issue time.
func (s *sm) latency(rec *exec.Record) int64 {
	switch {
	case rec.Unit == isa.UnitCTRL:
		return 1
	case rec.Unit == isa.UnitSFU:
		return int64(s.cfg.SFULat)
	default:
		return int64(s.cfg.SPLat)
	}
}

// memCosts computes the writeback latency and LD/ST occupancy of a
// memory record, probing the L1/L2 hierarchy and charging DRAM
// bandwidth for the segments that reach memory.
func (s *sm) memCosts(rec *exec.Record) (lat, occ int64) {
	switch rec.Dec.Space {
	case isa.SpaceShared, isa.SpaceParam:
		return int64(s.cfg.SharedLat + rec.BankSer - 1), int64(rec.BankSer)
	case isa.SpaceGlobal, isa.SpaceLocal:
		// Fall out to the cache/DRAM path below.
	}

	bases := mem.SegmentBases(s.segBuf[:0], rec.Addrs[:], uint32(rec.Executing), s.cfg.CoalesceBytes)
	occ = int64(len(bases))
	if occ < 1 {
		occ = 1
	}
	isAtom := rec.Dec.Op == isa.OpATOM
	if isAtom {
		occ = int64(rec.Executing.Count()) // atomics serialize per lane
		if occ < 1 {
			occ = 1
		}
	}

	if s.l1 == nil { // caches off: flat DRAM latency
		s.gpu.dramTokens -= float64(len(bases))
		lat = int64(s.cfg.GlobalLat) + occ - 1
		if isAtom {
			lat += int64(rec.Executing.Count())
		}
		return lat, occ
	}

	worst := int64(s.cfg.L1Lat)
	dramSegs := 0
	for _, b := range bases {
		switch {
		case isAtom:
			// Fermi performs atomics in the L2: always at least L2
			// latency; allocate there, never in L1.
			if s.gpu.l2.Access(b) {
				s.st.L2Hits++
			} else {
				s.st.L2Misses++
				dramSegs++
				if int64(s.cfg.GlobalLat) > worst {
					worst = int64(s.cfg.GlobalLat)
				}
			}
			if int64(s.cfg.L2Lat) > worst {
				worst = int64(s.cfg.L2Lat)
			}
			s.l1.Invalidate(b)
		case rec.IsStore:
			// Write-through, no-allocate: probe L2 without charging
			// DRAM on hit; drop any stale L1 copy.
			s.l1.Invalidate(b)
			if s.gpu.l2.Access(b) {
				s.st.L2Hits++
			} else {
				s.st.L2Misses++
				dramSegs++
			}
		default: // load
			if s.l1.Access(b) {
				s.st.L1Hits++
				continue
			}
			s.st.L1Misses++
			if s.gpu.l2.Access(b) {
				s.st.L2Hits++
				if int64(s.cfg.L2Lat) > worst {
					worst = int64(s.cfg.L2Lat)
				}
			} else {
				s.st.L2Misses++
				dramSegs++
				if int64(s.cfg.GlobalLat) > worst {
					worst = int64(s.cfg.GlobalLat)
				}
			}
		}
	}
	s.gpu.dramTokens -= float64(dramSegs)
	lat = worst + occ - 1
	if isAtom {
		lat += int64(rec.Executing.Count())
	}
	return lat, occ
}

// quiet reports whether the SM has nothing to do this cycle: no
// resident warp, no outstanding stall, no error and no DMR replay
// pending or queued. The launch loop skips a quiet SM and counts its
// idle issue slot, which is all tick would do.
func (s *sm) quiet() bool {
	return len(s.warps) == 0 && s.stall == 0 && s.err == nil && s.engine.Quiet()
}

// tick advances the SM by one cycle. Returns true if any work remains.
func (s *sm) tick(now int64) bool {
	if s.err != nil {
		return false
	}
	busy := len(s.warps) > 0
	if busy {
		s.lastBusy = now
	}
	if s.stall > 0 {
		s.stall--
		s.stallCycles++
		return busy
	}
	issued := 0
	for sched := 0; sched < s.cfg.NumSchedulers; sched++ {
		if wc := s.pick(sched, now); wc != nil {
			s.issue(wc, sched, now)
			issued++
			if s.err != nil {
				return false
			}
		}
	}
	if issued == 0 {
		// Nothing issuable: the execution units are idle this cycle.
		s.st.IdleIssueSlots++
		s.engine.IdleCycle(now)
	} else {
		s.issueCycles++
	}
	return busy
}

// pick selects the next warp for one scheduler. With two schedulers,
// warps are partitioned by parity of their position in dispatch order
// (Fermi-style even/odd warp ownership).
func (s *sm) pick(sched int, now int64) *warpCtx {
	n := len(s.warps)
	if n == 0 {
		return nil
	}
	mine := func(i int) bool {
		return s.cfg.NumSchedulers == 1 || i%s.cfg.NumSchedulers == sched
	}
	if s.cfg.Sched == arch.SchedGTO {
		// Greedy: stick with the last warp while it can issue.
		if g := s.greedy[sched]; g >= 0 && g < n && mine(g) && s.issuable(s.warps[g], sched, now) {
			return s.warps[g]
		}
		// Then oldest: scan in dispatch (age) order.
		for i := 0; i < n; i++ {
			if mine(i) && s.issuable(s.warps[i], sched, now) {
				s.greedy[sched] = i
				return s.warps[i]
			}
		}
		s.greedy[sched] = -1
		return nil
	}
	// Loose round-robin.
	for i := 0; i < n; i++ {
		idx := (s.rr[sched] + i) % n
		if mine(idx) && s.issuable(s.warps[idx], sched, now) {
			s.rr[sched] = idx + 1
			return s.warps[idx]
		}
	}
	return nil
}

func (s *sm) issue(wc *warpCtx, sched int, now int64) {
	s.issueNow = now
	s.issuePC = wc.ws.Ctl.PC()
	rec, err := s.machine.Step(&wc.ws)
	if err != nil {
		s.err = fmt.Errorf("sm%d block %d warp %d: %w", s.id, wc.block.id, wc.ws.Ctl.ID, err)
		return
	}

	if s.gpu.tracer != nil {
		s.gpu.tracer.Emit(trace.Event{
			Cycle: now, SM: s.id, WarpGID: wc.gid,
			BlockID: wc.block.id, WarpID: wc.ws.Ctl.ID,
			PC: rec.PC, Op: rec.Dec.Op, Unit: rec.Unit,
			Executing: rec.Executing, Divergent: rec.Divergent,
			Stores: rec.IsStore,
		})
	}

	// --- statistics taps ---
	s.st.WarpInstrs++
	nExec := rec.Executing.Count()
	s.st.ThreadInstrs += int64(nExec)
	if rec.Unit != isa.UnitCTRL {
		if nExec > 0 {
			s.st.ActiveHist[stats.ActiveBucket(nExec)]++
		}
		s.st.TypeHist[rec.Unit]++
		s.st.Runs.Observe(rec.Unit)
		s.st.UnitOps[rec.Unit]++
		// Bank-level accounting: a 128-bit bank entry feeds a whole
		// cluster, so register traffic is counted per warp instruction.
		s.st.RegFileReads += int64(rec.Dec.NSrc)
		if rec.DstValid {
			s.st.RegFileWrites++
		}
		if rec.IsMem {
			switch rec.Dec.Space {
			case isa.SpaceShared, isa.SpaceParam:
				s.st.SharedAccesses++
			case isa.SpaceGlobal, isa.SpaceLocal:
				s.st.GlobalAccesses++
			}
		}
	}
	if wc.tracked && s.st.RAW != nil && rec.Unit != isa.UnitCTRL {
		for _, r := range rec.SrcRegs() {
			s.st.RAW.Read(r, now)
		}
		if rec.DstValid {
			s.st.RAW.Write(rec.Dst, now)
		}
	}

	// --- timing updates ---
	var lat, occ int64
	if rec.IsMem {
		lat, occ = s.memCosts(rec)
	} else {
		lat, occ = s.latency(rec), 1
	}
	switch rec.Unit {
	case isa.UnitSP:
		s.spBusy[sched] = now + occ
	case isa.UnitSFU:
		s.sfuBusy = now + occ
	case isa.UnitLDST:
		s.ldstBusy = now + occ
	case isa.UnitCTRL:
		// Control ops occupy no unit.
	}
	if rec.DstValid {
		if rec.Unit != isa.UnitCTRL {
			if rb := s.regBankConflictCycles(rec.Dec); rb > 0 {
				lat += rb
				s.st.RegBankConflicts += rb
			}
		}
		wc.ready[rec.Dst] = now + lat
	}

	// --- control events ---
	switch {
	case rec.IsBarrier:
		wc.block.atBarrier++
		s.maybeReleaseBarrier(wc.block)
	case rec.IsExit && wc.ws.Ctl.Done():
		wc.block.live--
		s.maybeReleaseBarrier(wc.block)
		if wc.block.live == 0 {
			s.retire(wc.block)
		}
	}

	// --- Warped-DMR hook ---
	s.stall += s.engine.Issue(core.IssueInfo{
		Rec:     rec,
		WarpGID: wc.gid,
		Phys:    s.physMask(rec.Executing),
		Width:   wc.ws.Ctl.Width(),
		Cycle:   now,
	})
}

// physMask converts a logical thread-slot mask to a physical-lane mask
// under the configured thread->core mapping, via the pre-resolved
// lane table.
func (s *sm) physMask(logical simt.Mask) simt.Mask {
	if s.cfg.Mapping == arch.MapLinear {
		return logical
	}
	var out simt.Mask
	for rem := uint32(logical); rem != 0; rem &= rem - 1 {
		t := bits.TrailingZeros32(rem)
		out |= 1 << uint(s.laneFor[t])
	}
	return out
}

func (s *sm) maybeReleaseBarrier(b *blockCtx) {
	if b.atBarrier == 0 || b.atBarrier < b.live {
		return
	}
	for _, wc := range b.warps {
		wc.ws.Ctl.AtBarrier = false
	}
	b.atBarrier = 0
}

// retire removes a finished block and its warps from the SM, rolling
// each warp's lifetime control-flow tallies into the SM's metrics.
func (s *sm) retire(b *blockCtx) {
	for _, wc := range b.warps {
		s.stackDepth.Observe(int64(wc.ws.Ctl.MaxStackDepth()))
		s.diverges += wc.ws.Ctl.Diverges()
	}
	kept := s.blocks[:0]
	for _, x := range s.blocks {
		if x != b {
			kept = append(kept, x)
		}
	}
	s.blocks = kept
	wk := s.warps[:0]
	for _, wc := range s.warps {
		if wc.block != b {
			wk = append(wk, wc)
		}
	}
	s.warps = wk
	s.threadsIn -= b.threads
	s.gpu.blocksDone++
	for i := range s.rr {
		if s.rr[i] >= len(s.warps) {
			s.rr[i] = 0
		}
		s.greedy[i] = -1
	}
}
