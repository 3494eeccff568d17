package core

import (
	"math/bits"
	"slices"

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
	WarpGID int   // unique warp identifier within the SM
	Cycle   int64 // SM cycle of the issue
}

// qEntry is one unverified instruction: the pending one or a ReplayQ
// entry. Entries live in the engine's fixed slots and never move; the
// engine names the pending one by index, and the ReplayQ and the free
// slots are lists linked through next. The record is stored by value,
// since the issuing Machine reuses its record on the next Step: all of
// it on an engine with a fault hook, whose replay recomputes from it,
// and only the header a replay reads (PC, Dec and the masks) on an
// engine without one, whose replay is counted.
type qEntry struct {
	info IssueInfo
	rec  exec.Record
	next int32 // the next slot in the ReplayQ or the free list; -1 ends it
}

// issueInfo reconstructs the IssueInfo with Rec pointing at the
// entry's own record copy.
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
	table   PriorityTable
	perturb PerturbPhys
	onError func(ErrorEvent)
	met     *metrics.DMR // nil publishes nothing
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

	// slots hold every buffered instruction: one for the pending
	// instruction, plus ReplayQSize under inter-warp DMR; nil when
	// nothing is ever buffered.
	slots      []qEntry
	head, tail int32 // ReplayQ, oldest first; -1 when empty
	qlen       int
	free       int32 // first unused slot; -1 none
	pending    int32 // slot of the instruction "in RF" awaiting the DEC-stage type compare; -1 none
	phase      int   // lane-shuffle rotation phase

	pairBuf [32]Pairing // scratch for intra-warp RFU pairing
	redo    [32]uint32  // scratch for a replay's recomputed lanes
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
	fullReplays     int64     // uncompared full-warp replays: one on every lane
	verifyLatency   metrics.Tally
	detectLatency   metrics.Tally
}

// NewEngine builds the DMR engine for SM smID from its launch: policy
// is the launch's compiled protection policy (CompilePolicy; nil
// protects everything) and met the launch's DMR instrument set
// (internal/metrics.ForDMR) that FlushMetrics publishes into, or nil.
// st must not be nil; onError may be nil. Only an engine with
// inter-warp DMR allocates a ReplayQ.
//
// perturb is nil when no fault can reach the SM. The caller then
// promises that the original executions ran unperturbed as well, so
// every redundant execution would reproduce the recorded result: the
// engine counts such replays (every Stats field and metric) without
// recomputing or comparing them.
func NewEngine(cfg arch.Config, smID int, st *stats.Stats, policy ProtectionPolicy, met *metrics.DMR,
	perturb PerturbPhys, onError func(ErrorEvent)) *Engine {
	e := &Engine{
		cfg:     cfg,
		smID:    smID,
		st:      st,
		table:   *NewPriorityTable(cfg.ClusterSize),
		perturb: perturb,
		onError: onError,
		met:     met,
		policy:  policy,
		intra:   cfg.DMR == arch.DMRIntra || cfg.DMR == arch.DMRFull,
		inter:   cfg.DMR == arch.DMRInter || cfg.DMR == arch.DMRFull,
		dmtr:    cfg.DMR == arch.DMRTemporalAll,
		head:    -1,
		tail:    -1,
		free:    -1,
		pending: -1,
	}
	if met != nil {
		e.tally.depthHist = met.ReplayQDepthHist.Tally()
		e.tally.verifyLatency = met.VerifyLatency.Tally()
		e.tally.detectLatency = met.DetectionLatency.Tally()
	}
	if e.inter || e.dmtr {
		n := 1 // the pending slot
		if e.inter {
			n += cfg.ReplayQSize
		}
		e.slots = make([]qEntry, n)
		for i := n - 1; i >= 0; i-- {
			e.slots[i].next, e.free = e.free, int32(i)
		}
	}
	for t := 0; t < 32; t++ {
		e.laneFor[t] = uint8(cfg.LaneForThread(t))
		e.threadFor[t] = uint8(cfg.ThreadForLane(t))
	}
	return e
}

// FlushMetrics publishes the engine's launch into its instrument set
// (a no-op without one): the tallies, and the counters that equal a
// field of the SM's Stats, read from those Stats. The launch calls it
// once, on whichever path it returns by; the ReplayQ depth gauge takes
// the queue's occupancy at that moment and the high-water mark the
// engine saw.
func (e *Engine) FlushMetrics() {
	m, t, st := e.met, &e.tally, e.st
	if m == nil {
		return
	}
	m.ReplayQDepth.Publish(int64(e.qlen), int64(t.qHigh))
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
		if i < len(t.laneReplays) && t.laneReplays[i]+t.fullReplays != 0 {
			c.Add(t.laneReplays[i] + t.fullReplays)
		}
	}
	m.VerifyLatency.Publish(&t.verifyLatency)
	m.DetectionLatency.Publish(&t.detectLatency)
	m.Detections.Add(st.FaultsDetected)
}

// noteQueueDepth tracks the ReplayQ high-water mark.
func (e *Engine) noteQueueDepth() {
	if e.qlen > e.tally.qHigh {
		e.tally.qHigh = e.qlen
	}
}

// QueueLen returns the current ReplayQ occupancy.
func (e *Engine) QueueLen() int { return e.qlen }

// Quiet reports whether the engine holds no pending instruction and no
// ReplayQ entry, so an idle cycle would do nothing.
func (e *Engine) Quiet() bool { return e.pending < 0 && e.qlen == 0 }

// QueueSizeBytes returns the ReplayQ storage in bytes for the
// configured entry count (paper: 10 entries ~ 5 KB, 4% of a 128 KB RF).
func (e *Engine) QueueSizeBytes() int { return e.cfg.ReplayQSize * ReplayQEntryBytes }

// setPending buffers the issued instruction in a free slot as the
// pending (RF-stage) entry, copying the record out of the
// Machine-owned one: whole with a fault hook, its header without (see
// qEntry).
func (e *Engine) setPending(info IssueInfo) {
	i := e.free
	ent := &e.slots[i]
	e.free = ent.next
	if r := info.Rec; e.perturb != nil {
		ent.rec = *r
	} else {
		ent.rec.PC, ent.rec.Dec, ent.rec.Active, ent.rec.Executing = r.PC, r.Dec, r.Active, r.Executing
	}
	info.Rec = nil // entries never store the caller's pointer
	ent.info = info
	e.pending = i
}

// replay verifies the instruction in slot i at cycle at and frees the
// slot.
func (e *Engine) replay(i int32, at int64) {
	e.verify(e.slots[i].issueInfo(), at)
	e.slots[i].next, e.free = e.free, i
}

// push appends slot i to the ReplayQ.
func (e *Engine) push(i int32) {
	e.slots[i].next = -1
	if e.tail < 0 {
		e.head = i
	} else {
		e.slots[e.tail].next = i
	}
	e.tail = i
	e.qlen++
}

// unlink removes slot i, which follows slot prev (-1: i is the head),
// from the ReplayQ.
func (e *Engine) unlink(prev, i int32) {
	next := e.slots[i].next
	if prev < 0 {
		e.head = next
	} else {
		e.slots[prev].next = next
	}
	if e.tail == i {
		e.tail = prev
	}
	e.qlen--
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
	if p := e.pending; p >= 0 {
		used[e.slots[p].rec.Dec.Unit] = true
		e.pending = -1
		e.replay(p, now)
		e.st.ReplayCoexec++
	}
	e.drainIdleUnits(used, now)
}

// drainIdleUnits re-executes, for each unit class not marked used this
// cycle, the oldest buffered instruction of that class — the paper's
// "dequeued and re-executed whenever the corresponding execution unit
// becomes available" (§3.2). Controlled by the IdleDrain ablation knob.
func (e *Engine) drainIdleUnits(used [3]bool, now int64) {
	if !e.cfg.IdleDrain || e.qlen == 0 {
		return
	}
	for prev, i := int32(-1), e.head; i >= 0; {
		next := e.slots[i].next
		u := e.slots[i].rec.Dec.Unit
		if used[u] {
			prev, i = i, next
			continue
		}
		used[u] = true
		e.unlink(prev, i)
		e.noteQueueDepth()
		e.replay(i, now)
		e.st.ReplayIdleDrain++
		if used[0] && used[1] && used[2] {
			return
		}
		i = next
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
	unit := rec.Dec.Unit

	// Control instructions occupy no SP/SFU/LDST unit: the pending
	// instruction's unit is idle next cycle, verifying it for free.
	if unit == isa.UnitCTRL || !computable(rec.Dec.Op) {
		if p := e.pending; p >= 0 {
			e.pending = -1
			e.replay(p, info.Cycle)
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
		if e.pending >= 0 {
			stall += e.resolvePending(unit, &[3]bool{}, info.Cycle)
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
	used[unit] = true // busy with the primary execution
	if e.pending >= 0 {
		stall += e.resolvePending(unit, &used, info.Cycle)
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
	p := e.pending
	e.pending = -1
	pUnit := e.slots[p].rec.Dec.Unit

	if pUnit != curUnit {
		// Different types: the pending instruction's unit is idle next
		// cycle; co-execute its DMR copy for free.
		used[pUnit] = true
		e.replay(p, now+1)
		e.st.ReplayCoexec++
		return 0
	}
	// Same type: try to swap with a different-type ReplayQ entry.
	if !e.dmtr {
		for prev, i := int32(-1), e.head; i >= 0; prev, i = i, e.slots[i].next {
			u := e.slots[i].rec.Dec.Unit
			if u != pUnit && !used[u] {
				e.unlink(prev, i)
				e.push(p)
				e.st.ReplayEnq++
				e.noteEnqueue()
				used[u] = true
				e.replay(i, now+1)
				e.st.ReplayCoexec++
				return 0
			}
		}
		if e.qlen < e.cfg.ReplayQSize {
			e.push(p)
			e.st.ReplayEnq++
			e.noteEnqueue()
			return 0
		}
	}
	// ReplayQ full (or absent): eager re-execution with a one-cycle
	// pipeline stall, reusing operands still live in the pipeline.
	e.replay(p, now+1)
	e.st.StallReplayQFull++
	return 1
}

// noteEnqueue tallies a ReplayQ enqueue: the occupancy-at-enqueue
// histogram and the high-water mark.
func (e *Engine) noteEnqueue() {
	e.tally.depthHist.Observe(int64(e.qlen))
	e.noteQueueDepth()
}

// verifyRAWProducers flushes ReplayQ entries whose destination register
// is read by the incoming instruction of the same warp.
func (e *Engine) verifyRAWProducers(info IssueInfo) (stall int) {
	if e.qlen == 0 {
		return 0
	}
	reads := info.Rec.SrcRegs()
	if len(reads) == 0 {
		return 0
	}
	for prev, i := int32(-1), e.head; i >= 0; {
		ent := &e.slots[i]
		next := ent.next
		if d := ent.rec.Dec; ent.info.WarpGID == info.WarpGID && d.HasDst && slices.Contains(reads, d.Dst) {
			e.unlink(prev, i)
			e.replay(i, info.Cycle)
			e.st.StallRAWUnverif++
			stall++
		} else {
			prev = i
		}
		i = next
	}
	if stall > 0 {
		e.noteQueueDepth()
	}
	return stall
}

// Drain verifies the pending instruction and every buffered entry at
// kernel completion (starting at cycle `at`), returning the cycles
// consumed — one per replay, on the now-idle units.
func (e *Engine) Drain(at int64) (cycles int) {
	if p := e.pending; p >= 0 {
		cycles++
		e.pending = -1
		e.replay(p, at+int64(cycles))
		e.st.ReplayCoexec++
	}
	for i := e.head; i >= 0; {
		next := e.slots[i].next
		cycles++
		e.replay(i, at+int64(cycles))
		e.st.ReplayIdleDrain++
		i = next
	}
	e.head, e.tail, e.qlen = -1, -1, 0
	e.noteQueueDepth()
	return cycles
}

// Lane returns the physical lane that executes thread slot thread under
// the configured thread->core mapping.
func (e *Engine) Lane(thread int) int { return int(e.laneFor[thread]) }

// physLanes maps a thread-slot mask to the physical lanes that execute
// it under the configured thread->core mapping.
func (e *Engine) physLanes(threads simt.Mask) simt.Mask {
	var phys simt.Mask
	for rem := uint32(threads); rem != 0; rem &= rem - 1 {
		phys |= 1 << e.laneFor[bits.TrailingZeros32(rem)]
	}
	return phys
}

// intraWarp performs spatial DMR for a partially-utilized warp: idle
// lanes re-execute active lanes' computations via the RFU pairing,
// which works in physical-lane space.
func (e *Engine) intraWarp(info IssueInfo) {
	rec := info.Rec
	if rec.Executing == 0 {
		return
	}
	unit := rec.Dec.Unit
	phys := e.physLanes(rec.Executing)
	pairs, covered := e.table.PairWarpInto(phys, e.cfg.WarpSize, e.pairBuf[:0])
	e.st.VerifiedIntra += int64(covered)
	e.st.RedundantOps[unit] += int64(len(pairs))
	e.tally.pairings += int64(len(pairs))
	if missed := phys.Count() - covered; missed > 0 {
		e.tally.missedLanes += int64(missed)
	}
	// With no fault reaching this SM the copies match (see NewEngine):
	// nothing is recomputed or compared.
	recomputed := e.perturb != nil && len(pairs) > 0 && rec.Recompute(&e.redo)
	for _, p := range pairs {
		e.tally.clusterPairings[p.Active/e.cfg.ClusterSize]++
		if !recomputed {
			continue
		}
		thread := int(e.threadFor[p.Active])
		if red := e.perturb(p.Idle, unit, e.redo[thread]); red != rec.Vals[thread] {
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
	unit := rec.Dec.Unit
	if at < info.Cycle {
		at = info.Cycle
	}
	e.phase++
	nexec := int64(rec.Executing.Count())
	e.st.VerifiedInter += nexec
	e.st.RedundantOps[unit] += nexec
	e.tally.verifyLatency.Observe(at - info.Cycle)
	if e.perturb == nil && rec.Executing == ^simt.Mask(0) {
		// No fault reaches this SM, so the replay matches (see
		// NewEngine), and a full warp replays once on every physical
		// lane: the mapping and the shuffle rotation are permutations.
		e.tally.fullReplays++
		return
	}
	recomputed := e.perturb != nil && rec.Recompute(&e.redo)
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
		if !recomputed {
			continue
		}
		if red := e.perturb(verif, unit, e.redo[thread]); red != rec.Vals[thread] {
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
