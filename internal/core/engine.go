package core

import (
	"math/bits"

	"warped/internal/arch"
	"warped/internal/exec"
	"warped/internal/isa"
	"warped/internal/metrics"
	"warped/internal/simt"
	"warped/internal/stats"
)

// PerturbPhys is the physical-lane fault hook used for redundant
// executions: given the physical SIMT lane performing the computation,
// the unit class, and the golden value, it returns the value that lane
// actually produces. nil means fault-free hardware.
type PerturbPhys func(physLane int, unit isa.UnitClass, golden uint32) uint32

// ErrorEvent describes a detected mismatch between an original
// execution and its redundant execution.
type ErrorEvent struct {
	SM        int
	Cycle     int64 // issue cycle of the verified instruction
	WarpGID   int
	PC        int
	Thread    int // logical thread slot within the warp
	OrigLane  int // physical lane of the original execution
	VerifLane int // physical lane of the redundant execution
	Original  uint32
	Redundant uint32
	Intra     bool // detected by intra-warp (spatial) DMR
}

// IssueInfo describes one issued warp instruction to the DMR engine.
// Rec may point at a Machine-owned record that is only valid during the
// Issue call; the engine copies it by value before buffering.
type IssueInfo struct {
	Rec     *exec.Record
	WarpGID int       // unique warp identifier within the SM
	Phys    simt.Mask // physical-lane mask of executing lanes
	Width   int       // lanes the warp launched with
	Cycle   int64     // SM cycle of the issue
}

// qEntry is one unverified instruction buffered in the ReplayQ. The
// record is stored by value — the issuing Machine reuses its record on
// the next Step — and info.Rec is re-pointed at it on use.
type qEntry struct {
	info IssueInfo
	rec  exec.Record
}

// issueInfo reconstructs the IssueInfo with Rec pointing at the
// entry's own record copy (entries move when the queue compacts, so
// the pointer is never stored).
func (q *qEntry) issueInfo() IssueInfo {
	info := q.info
	info.Rec = &q.rec
	return info
}

// ReplayQEntryBytes is the storage for one ReplayQ entry: 32 lanes x 3
// source operands x 4 bytes, plus 32 lanes x 4 bytes of original
// results, plus 2-4 bytes of opcode — 514..516 bytes (paper §4.3.1).
const ReplayQEntryBytes = 32*3*4 + 32*4 + 3

// Engine is the per-SM Warped-DMR machinery: the RFU pairing logic for
// intra-warp DMR and the Replay Checker + ReplayQ for inter-warp DMR.
type Engine struct {
	cfg     arch.Config
	smID    int
	st      *stats.Stats
	table   *PriorityTable
	perturb PerturbPhys
	onError func(ErrorEvent)
	met     *metrics.DMR // never nil; built from a nil registry by default
	tally   dmrTally     // plain per-SM counts, published by FlushMetrics

	// policy gates which eligible instructions are verified. nil means
	// protect everything (PolicyFull) with zero per-issue cost — the
	// common case never pays an interface call.
	policy ProtectionPolicy

	intra bool
	inter bool
	dmtr  bool

	// laneFor/threadFor pre-resolve the configured thread<->lane mapping
	// so the per-replay path avoids copying arch.Config per call.
	laneFor   [32]uint8 // thread slot -> physical lane
	threadFor [32]uint8 // physical lane -> thread slot

	q          []qEntry
	pendingEnt qEntry // instruction "in RF" awaiting the DEC-stage type compare
	hasPending bool
	phase      int // lane-shuffle rotation phase

	pairBuf [32]Pairing // scratch for intra-warp RFU pairing
}

// dmrTally is the engine's share of the dmr.* metrics that Stats does
// not already count. The hot path bumps these plain fields; FlushMetrics
// publishes them, with the Stats mirrors, once per launch.
type dmrTally struct {
	qHigh           int // ReplayQ high-water mark
	depthHist       metrics.Tally
	pairings        int64
	missedLanes     int64
	clusterPairings [32]int64 // by cluster index of the active lane
	laneReplays     [32]int64 // temporal replays by physical lane
	verifyLatency   metrics.Tally
	detectLatency   metrics.Tally
}

// NewEngine builds the DMR engine for SM smID. st must not be nil;
// perturb and onError may be nil.
func NewEngine(cfg arch.Config, smID int, st *stats.Stats, perturb PerturbPhys, onError func(ErrorEvent)) *Engine {
	e := &Engine{
		cfg:     cfg,
		smID:    smID,
		st:      st,
		table:   NewPriorityTable(cfg.ClusterSize),
		perturb: perturb,
		onError: onError,
		intra:   cfg.DMR == arch.DMRIntra || cfg.DMR == arch.DMRFull,
		inter:   cfg.DMR == arch.DMRInter || cfg.DMR == arch.DMRFull,
		dmtr:    cfg.DMR == arch.DMRTemporalAll,
		policy:  CompilePolicy(cfg.Policy, ""),
	}
	e.SetMetrics(nil)
	if cfg.ReplayQSize > 0 {
		e.q = make([]qEntry, 0, cfg.ReplayQSize)
	}
	for t := 0; t < 32; t++ {
		e.laneFor[t] = uint8(cfg.LaneForThread(t))
		e.threadFor[t] = uint8(cfg.ThreadForLane(t))
	}
	return e
}

// SetMetrics points the engine at a pre-resolved DMR instrument set
// (see internal/metrics.ForDMR) that FlushMetrics publishes into.
// Passing nil restores the default no-op set. Call before the first
// Issue: it resets the engine's tallies.
func (e *Engine) SetMetrics(m *metrics.DMR) {
	if m == nil {
		m = metrics.ForDMR(nil, e.cfg.WarpSize, e.cfg.ClusterSize)
	}
	e.met = m
	e.tally = dmrTally{
		depthHist:     m.ReplayQDepthHist.Tally(),
		verifyLatency: m.VerifyLatency.Tally(),
		detectLatency: m.DetectionLatency.Tally(),
	}
}

// FlushMetrics publishes the engine's launch into its instrument set:
// the tallies, and the counters that equal a field of the SM's Stats,
// read from those Stats. The launch calls it once, on whichever path it
// returns by; the ReplayQ depth gauge takes the queue's occupancy at
// that moment and the high-water mark the engine saw.
func (e *Engine) FlushMetrics() {
	m, t, st := e.met, &e.tally, e.st
	m.ReplayQDepth.Publish(int64(len(e.q)), int64(t.qHigh))
	m.ReplayQDepthHist.Publish(&t.depthHist)
	m.ReplayQEnqueued.Add(st.ReplayEnq)
	m.OverflowStalls.Add(st.StallReplayQFull)
	m.RAWFlushStalls.Add(st.StallRAWUnverif)
	m.CoexecReplays.Add(st.ReplayCoexec)
	m.IdleDrainReplays.Add(st.ReplayIdleDrain)
	m.IntraVerified.Add(st.VerifiedIntra)
	m.InterVerified.Add(st.VerifiedInter)
	m.PolicyProtected.Add(st.ProtectedTI)
	m.PolicySkipped.Add(st.SkippedTI)
	m.RFUPairings.Add(t.pairings)
	m.RFUCoveredLanes.Add(st.VerifiedIntra) // one covered lane per intra-verified thread
	m.RFUMissedLanes.Add(t.missedLanes)
	for i, c := range m.ClusterPairings {
		if i < len(t.clusterPairings) && t.clusterPairings[i] != 0 {
			c.Add(t.clusterPairings[i])
		}
	}
	for i, c := range m.ShuffleLaneUsed {
		if i < len(t.laneReplays) && t.laneReplays[i] != 0 {
			c.Add(t.laneReplays[i])
		}
	}
	m.VerifyLatency.Publish(&t.verifyLatency)
	m.DetectionLatency.Publish(&t.detectLatency)
	m.Detections.Add(st.FaultsDetected)
}

// SetPolicy installs the launch-resolved protection policy (see
// CompilePolicy). NewEngine compiles cfg.Policy against an empty kernel
// name; callers that know the kernel (the simulator does) re-resolve
// per launch so PolicyPerKernel sees the real name. nil protects
// everything. Call before the first Issue.
func (e *Engine) SetPolicy(p ProtectionPolicy) { e.policy = p }

// noteQueueDepth tracks the ReplayQ high-water mark.
func (e *Engine) noteQueueDepth() {
	if len(e.q) > e.tally.qHigh {
		e.tally.qHigh = len(e.q)
	}
}

// QueueLen returns the current ReplayQ occupancy.
func (e *Engine) QueueLen() int { return len(e.q) }

// QueueSizeBytes returns the ReplayQ storage in bytes for the
// configured entry count (paper: 10 entries ~ 5 KB, 4% of a 128 KB RF).
func (e *Engine) QueueSizeBytes() int { return e.cfg.ReplayQSize * ReplayQEntryBytes }

// setPending buffers the issued instruction as the pending (RF-stage)
// entry, copying the record out of the Machine-owned slot.
func (e *Engine) setPending(info IssueInfo) {
	e.pendingEnt.rec = *info.Rec
	info.Rec = nil // entries never store the caller's pointer
	e.pendingEnt.info = info
	e.hasPending = true
}

// computable reports whether an instruction's result can be recomputed
// by a redundant lane (i.e. it is a DMR target).
func computable(op isa.Opcode) bool {
	// Control ops (BRA/BAR/EXIT) plus NOP and the predicate-file ops
	// have no lane value to recompute; everything else — including
	// LD/ST/ATOM, whose effective address is the verified value — does.
	return op.Unit() != isa.UnitCTRL &&
		op != isa.OpNOP && op != isa.OpPAND && op != isa.OpPNOT
}

// IdleCycle informs the engine that the SM issued nothing at cycle now.
// All execution units are idle: the pending instruction (if any) is
// verified for free, and every unit class may drain one ReplayQ entry.
func (e *Engine) IdleCycle(now int64) {
	var used [3]bool
	if e.hasPending {
		used[e.pendingEnt.rec.Unit] = true
		e.hasPending = false
		e.verify(e.pendingEnt.issueInfo(), now)
		e.st.ReplayCoexec++
	}
	e.drainIdleUnits(used, now)
}

// drainIdleUnits re-executes, for each unit class not marked used this
// cycle, the oldest buffered instruction of that class — the paper's
// "dequeued and re-executed whenever the corresponding execution unit
// becomes available" (§3.2). Controlled by the IdleDrain ablation knob.
func (e *Engine) drainIdleUnits(used [3]bool, now int64) {
	if !e.cfg.IdleDrain || len(e.q) == 0 {
		return
	}
	for i := 0; i < len(e.q); {
		u := e.q[i].rec.Unit
		if used[u] {
			i++
			continue
		}
		used[u] = true
		ent := e.q[i]
		e.q = append(e.q[:i], e.q[i+1:]...)
		e.noteQueueDepth()
		e.verify(ent.issueInfo(), now)
		e.st.ReplayIdleDrain++
		if used[0] && used[1] && used[2] {
			return
		}
	}
}

// Issue processes one issued warp instruction and returns the number of
// stall cycles the SM must charge (ReplayQ-full eager re-execution or
// RAW-on-unverified verification stalls).
func (e *Engine) Issue(info IssueInfo) (stall int) {
	rec := info.Rec
	if e.cfg.DMR == arch.DMROff {
		return 0
	}

	// Control instructions occupy no SP/SFU/LDST unit: the pending
	// instruction's unit is idle next cycle, verifying it for free.
	if rec.Unit == isa.UnitCTRL || !computable(rec.Instr.Op) {
		if e.hasPending {
			e.hasPending = false
			e.verify(e.pendingEnt.issueInfo(), info.Cycle)
			e.st.ReplayCoexec++
		}
		return 0
	}

	eligible := int64(rec.Executing.Count())
	e.st.EligibleTI += eligible

	// Selective protection: the policy decides from pre-computed facts
	// whether this instruction is verified. Skipped instructions stay in
	// EligibleTI, so Coverage() reports what the policy actually bought.
	if e.policy != nil && !e.policy.Protect(PolicyFacts{
		WarpGID: info.WarpGID, PC: rec.PC, Active: int(eligible), Cycle: info.Cycle,
	}) {
		e.st.SkippedTI += eligible
		if e.hasPending {
			stall += e.resolvePending(rec.Unit, &[3]bool{}, info.Cycle)
		}
		return stall
	}
	e.st.ProtectedTI += eligible

	// RAW on unverified results: a consumer may not read a value whose
	// producer is still buffered in the ReplayQ. Verify such producers
	// now, one stall cycle each (paper §4.3).
	if e.inter || e.dmtr {
		stall += e.verifyRAWProducers(info)
	}

	// A warp is fully utilized only when all hardware lanes execute;
	// blocks narrower than the warp width always leave physical lanes
	// idle, so they stay in intra-warp DMR territory.
	fullMask := simt.FullMask(e.cfg.WarpSize)
	isFull := rec.Executing == rec.Active && rec.Active == fullMask

	// Resolve the pending (RF-stage) instruction against this one
	// (DEC-stage): Algorithm 1. Track which unit classes perform a
	// redundant execution this cycle; the rest may drain the ReplayQ.
	var used [3]bool
	used[rec.Unit] = true // busy with the primary execution
	if e.hasPending {
		stall += e.resolvePending(rec.Unit, &used, info.Cycle)
	}
	e.drainIdleUnits(used, info.Cycle)

	switch {
	case e.dmtr:
		// DMTR baseline: every instruction is replayed in the following
		// cycle regardless of utilization; no ReplayQ.
		e.setPending(info)
	case isFull && e.inter:
		e.setPending(info)
	case !isFull && e.intra:
		e.intraWarp(info)
	}
	return stall
}

// resolvePending applies the Replay Checker decision for the pending
// instruction given the unit type of the instruction right behind it,
// marking any unit class it occupies with a redundant execution.
func (e *Engine) resolvePending(curUnit isa.UnitClass, used *[3]bool, now int64) (stall int) {
	p := &e.pendingEnt
	e.hasPending = false
	pUnit := p.rec.Unit

	if pUnit != curUnit {
		// Different types: the pending instruction's unit is idle next
		// cycle; co-execute its DMR copy for free.
		used[pUnit] = true
		e.verify(p.issueInfo(), now+1)
		e.st.ReplayCoexec++
		return 0
	}
	// Same type: try to swap with a different-type ReplayQ entry.
	if !e.dmtr {
		for i := range e.q {
			u := e.q[i].rec.Unit
			if u != pUnit && !used[u] {
				ent := e.q[i]
				e.q = append(e.q[:i], e.q[i+1:]...)
				e.q = append(e.q, *p)
				e.st.ReplayEnq++
				e.noteEnqueue()
				used[u] = true
				e.verify(ent.issueInfo(), now+1)
				e.st.ReplayCoexec++
				return 0
			}
		}
		if len(e.q) < e.cfg.ReplayQSize {
			e.q = append(e.q, *p)
			e.st.ReplayEnq++
			e.noteEnqueue()
			return 0
		}
	}
	// ReplayQ full (or absent): eager re-execution with a one-cycle
	// pipeline stall, reusing operands still live in the pipeline.
	e.verify(p.issueInfo(), now+1)
	e.st.StallReplayQFull++
	return 1
}

// noteEnqueue tallies a ReplayQ enqueue: the occupancy-at-enqueue
// histogram and the high-water mark.
func (e *Engine) noteEnqueue() {
	e.tally.depthHist.Observe(int64(len(e.q)))
	e.noteQueueDepth()
}

// verifyRAWProducers flushes ReplayQ entries whose destination register
// is read by the incoming instruction of the same warp.
func (e *Engine) verifyRAWProducers(info IssueInfo) (stall int) {
	if len(e.q) == 0 {
		return 0
	}
	reads := info.Rec.SrcRegs()
	if len(reads) == 0 {
		return 0
	}
	hits := func(ent *qEntry) bool {
		if ent.info.WarpGID != info.WarpGID || !ent.rec.DstValid {
			return false
		}
		for _, r := range reads {
			if r == ent.rec.Dst {
				return true
			}
		}
		return false
	}
	// Fast path: no RAW hazard buffered (the common case) — leave the
	// queue untouched instead of copying every entry through compaction.
	first := -1
	for i := range e.q {
		if hits(&e.q[i]) {
			first = i
			break
		}
	}
	if first < 0 {
		return 0
	}
	kept := e.q[:first]
	for i := first; i < len(e.q); i++ {
		ent := &e.q[i]
		if hits(ent) {
			e.verify(ent.issueInfo(), info.Cycle)
			e.st.StallRAWUnverif++
			stall++
		} else {
			kept = append(kept, *ent)
		}
	}
	e.q = kept
	e.noteQueueDepth()
	return stall
}

// Drain verifies the pending instruction and every buffered entry at
// kernel completion (starting at cycle `at`), returning the cycles
// consumed — one per replay, on the now-idle units.
func (e *Engine) Drain(at int64) (cycles int) {
	if e.hasPending {
		cycles++
		e.hasPending = false
		e.verify(e.pendingEnt.issueInfo(), at+int64(cycles))
		e.st.ReplayCoexec++
	}
	for i := range e.q {
		cycles++
		e.verify(e.q[i].issueInfo(), at+int64(cycles))
		e.st.ReplayIdleDrain++
	}
	e.q = e.q[:0]
	e.noteQueueDepth()
	return cycles
}

// intraWarp performs spatial DMR for a partially-utilized warp: idle
// lanes re-execute active lanes' computations via the RFU pairing.
func (e *Engine) intraWarp(info IssueInfo) {
	rec := info.Rec
	if rec.Executing == 0 {
		return
	}
	pairs, covered := e.table.PairWarpInto(info.Phys, e.cfg.WarpSize, e.pairBuf[:0])
	e.st.VerifiedIntra += int64(covered)
	e.st.RedundantOps[rec.Unit] += int64(len(pairs))
	e.tally.pairings += int64(len(pairs))
	if missed := info.Phys.Count() - covered; missed > 0 {
		e.tally.missedLanes += int64(missed)
	}
	for _, p := range pairs {
		e.tally.clusterPairings[p.Active/e.cfg.ClusterSize]++
		thread := int(e.threadFor[p.Active])
		golden, ok := rec.Recompute(rec.SrcVals[0][thread], rec.SrcVals[1][thread], rec.SrcVals[2][thread])
		if !ok {
			continue
		}
		red := golden
		if e.perturb != nil {
			red = e.perturb(p.Idle, rec.Unit, golden)
		}
		if red != rec.Vals[thread] {
			e.st.FaultsDetected++
			e.tally.detectLatency.Observe(0) // spatial DMR verifies in the issue cycle
			if e.onError != nil {
				e.onError(ErrorEvent{
					SM: e.smID, Cycle: info.Cycle, WarpGID: info.WarpGID, PC: rec.PC, Thread: thread,
					OrigLane: p.Active, VerifLane: p.Idle,
					Original: rec.Vals[thread], Redundant: red, Intra: true,
				})
			}
		}
	}
}

// verify performs the temporal redundant execution of a buffered or
// pending instruction, with lane shuffling so the replay runs on a
// different physical lane than the original (hidden-error avoidance).
func (e *Engine) verify(info IssueInfo, at int64) {
	rec := info.Rec
	if at < info.Cycle {
		at = info.Cycle
	}
	e.phase++
	nexec := int64(rec.Executing.Count())
	e.st.VerifiedInter += nexec
	e.st.RedundantOps[rec.Unit] += nexec
	e.tally.verifyLatency.Observe(at - info.Cycle)
	// Hoist the lane-shuffle rotation out of the per-lane loop: the
	// phase (and hence ShuffleLane's result per lane) is fixed for the
	// whole replay, and cluster sizes are powers of two.
	shuffle := e.cfg.LaneShuffle && e.cfg.ClusterSize > 1
	var rot, cmask int
	if shuffle {
		cmask = e.cfg.ClusterSize - 1
		rot = 1 + e.phase%(e.cfg.ClusterSize-1)
	}
	for rem := uint32(rec.Executing); rem != 0; rem &= rem - 1 {
		thread := bits.TrailingZeros32(rem)
		orig := int(e.laneFor[thread])
		verif := orig
		if shuffle {
			base := orig &^ cmask
			verif = base + (orig-base+rot)&cmask
		}
		e.tally.laneReplays[verif]++
		golden, ok := rec.Recompute(rec.SrcVals[0][thread], rec.SrcVals[1][thread], rec.SrcVals[2][thread])
		if !ok {
			continue
		}
		red := golden
		if e.perturb != nil {
			red = e.perturb(verif, rec.Unit, golden)
		}
		if red != rec.Vals[thread] {
			e.st.FaultsDetected++
			e.tally.detectLatency.Observe(at - info.Cycle)
			if e.onError != nil {
				e.onError(ErrorEvent{
					SM: e.smID, Cycle: at, WarpGID: info.WarpGID, PC: rec.PC, Thread: thread,
					OrigLane: orig, VerifLane: verif,
					Original: rec.Vals[thread], Redundant: red,
				})
			}
		}
	}
}
