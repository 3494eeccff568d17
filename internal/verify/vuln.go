package verify

// Static fault-vulnerability analysis (ACE analysis).
//
// The Warped-DMR fault model corrupts, per dynamic instruction, exactly
// one computed value (internal/exec.Machine):
//
//   - data ops (SP/SFU): the result written to the destination GPR
//   - setp: the 0/1 comparison result that sets the destination predicate
//   - ld/st/atom: the effective address
//
// An instruction is unACE (un-Architecturally-Correct-Execution
// required) when no corruption of that value can ever change anything
// observable: kernel output, validation results, or any simulator
// statistic (the figures print statistics, so "observable" includes
// timing-relevant state such as executing masks and addresses). A fault
// injected at an unACE PC is architecturally masked, which is what
// makes skipping its verification free coverage-wise — the basis of
// policy synthesis (arch.SynthesizePolicy).
//
// The analysis is a backward per-instruction bit-level liveness
// dataflow over the verifier's CFG, with masking transfers:
//
//   - `and r,a,M` with constant M: only bits of a under M flow through
//   - `shl`/`shr`/`sar` by a constant shift the live-bit window
//   - `iadd`/`isub`/`imul`/`imad`: carries propagate upward only, so a
//     live window [0..k] keeps source bits [0..k] live and kills higher
//   - a dest written on every lane kills its previous value; a guarded
//     write kills only when the affine-in-tid domain (affine.go) proves
//     the guard true for every thread of the declared geometry —
//     otherwise inactive lanes keep the old value and it stays live
//
// Soundness caveats (docs/STATIC_ANALYSIS.md "Vulnerability analysis"):
// liveness is a may-analysis per thread slot; anything stored to memory
// is treated as fully live (cross-thread flows move through memory, so
// per-thread register liveness stays sound under races and atomics);
// guard predicates are always live because the executing-lane count
// they select feeds the statistics the figures print; memory ops are
// always ACE because their verified value is the effective address.
// Unreachable instructions are classified unknown, not unACE: the
// analysis never saw them execute, so it refuses to claim masking.

import (
	"fmt"
	"math/bits"

	"warped/internal/isa"
)

// VulnClass classifies a PC's fault vulnerability.
type VulnClass uint8

const (
	// VulnUnknown marks PCs the analysis cannot soundly classify
	// (unreachable code). Policy synthesis protects them.
	VulnUnknown VulnClass = iota
	// VulnACE marks PCs where a fault can reach observable state.
	VulnACE
	// VulnUnACE marks PCs where every fault is architecturally masked.
	VulnUnACE
)

func (c VulnClass) String() string {
	switch c {
	case VulnACE:
		return "ACE"
	case VulnUnACE:
		return "unACE"
	case VulnUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("VulnClass(%d)", int(c))
	}
}

// PCVuln is the classification of one instruction.
type PCVuln struct {
	PC   int
	Line int
	// Class is the ACE classification under the machine's fault model.
	Class VulnClass
	// Eligible reports whether the DMR engine would verify this
	// instruction at all (core's computable set: everything except
	// control ops, nop, and the predicate-file ops). Protection
	// policies only ever skip eligible instructions, so synthesis
	// consumes eligible unACE PCs.
	Eligible bool
	// LiveBits is the live-out bit mask of the destination value for
	// data ops (0 for a dead result); 0 or 1 for setp.
	LiveBits uint32
	// Reason is a short, stable explanation of the classification.
	Reason string
}

// VulnReport is the per-kernel vulnerability analysis result.
type VulnReport struct {
	Kernel string
	PCs    []PCVuln

	// Counts over DMR-eligible PCs (the policy-relevant population).
	EligiblePCs int
	ACE         int
	UnACE       int
	Unknown     int
}

// UnACEPCs returns the eligible unACE PCs in program order — the PCs a
// synthesized policy may skip.
func (r *VulnReport) UnACEPCs() []int {
	var out []int
	for _, v := range r.PCs {
		if v.Eligible && v.Class == VulnUnACE {
			out = append(out, v.PC)
		}
	}
	return out
}

// AnalyzeVuln classifies every PC of a program with default options.
func AnalyzeVuln(p *isa.Program) (*VulnReport, error) {
	return AnalyzeVulnWith(p, Options{})
}

// AnalyzeVulnWith classifies every PC of the program as ACE, unACE or
// unknown under the simulator's fault model. The program must verify
// clean of errors first: liveness over a malformed CFG (invalid branch
// targets, fall-through past the end) is not sound, so error-severity
// findings abort the analysis.
func AnalyzeVulnWith(p *isa.Program, opt Options) (*VulnReport, error) {
	opt = opt.withDefaults()
	if p == nil || len(p.Instrs) == 0 {
		return nil, fmt.Errorf("verify: vuln: empty program")
	}
	// The verifier's CFG, reachability and affine facts (for the
	// uniform-guard kill refinement) serve the liveness analysis too.
	c := check(p, opt)
	if err := c.findings.Err(); err != nil {
		return nil, fmt.Errorf("verify: vuln: program does not verify: %w", err)
	}
	v := &vulnAnalysis{c: c}
	v.run()
	return v.report(), nil
}

// vulnEligible mirrors the DMR engine's computable set (core.computable):
// the instructions whose issue enters the verification machinery.
func vulnEligible(op isa.Opcode) bool {
	return op.Unit() != isa.UnitCTRL &&
		op != isa.OpNOP && op != isa.OpPAND && op != isa.OpPNOT
}

// liveState is the backward-dataflow fact at one program point: the
// live bits of every GPR plus a live bit per predicate register.
type liveState struct {
	gpr  [isa.MaxGPR]uint32
	pred uint8
}

func (s *liveState) union(o *liveState) (changed bool) {
	for i := range s.gpr {
		if m := s.gpr[i] | o.gpr[i]; m != s.gpr[i] {
			s.gpr[i] = m
			changed = true
		}
	}
	if m := s.pred | o.pred; m != s.pred {
		s.pred = m
		changed = true
	}
	return changed
}

// vulnAnalysis runs the liveness fixpoint and classification.
type vulnAnalysis struct {
	c *checker

	in         []liveState // live-in per PC (fixpoint result)
	preds      [][]int     // CFG predecessor lists
	alwaysExec []bool      // write provably executes on every thread
}

func (v *vulnAnalysis) run() {
	c := v.c
	n := len(c.p.Instrs)
	v.in = make([]liveState, n)
	v.preds = make([][]int, n)
	for pc, ss := range c.succ {
		for _, s := range ss {
			v.preds[s] = append(v.preds[s], pc)
		}
	}
	v.alwaysExec = make([]bool, n)
	for pc := range c.p.Instrs {
		v.alwaysExec[pc] = v.guardAlwaysHolds(pc)
	}

	// Backward worklist to fixpoint. The lattice is finite (bit masks
	// only grow under union) and the transfer is monotone, so this
	// terminates.
	inWork := make([]bool, n)
	work := make([]int, 0, n)
	for pc := n - 1; pc >= 0; pc-- {
		work = append(work, pc)
		inWork[pc] = true
	}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[pc] = false
		out := v.outState(pc)
		v.transfer(pc, &out)
		if v.in[pc].union(&out) {
			for _, p := range v.preds[pc] {
				if !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}
}

// outState unions the live-in states of pc's successors. Exits (no
// successors) flow from the empty state: registers are dead once the
// kernel is done — memory is the output.
func (v *vulnAnalysis) outState(pc int) liveState {
	var out liveState
	for _, s := range v.c.succ[pc] {
		out.union(&v.in[s])
	}
	return out
}

// guardAlwaysHolds reports whether the instruction's guard is provably
// true for every thread of the declared geometry, making its write
// unconditional — the affine-in-tid refinement that lets tautologically
// guarded writes kill liveness.
func (v *vulnAnalysis) guardAlwaysHolds(pc int) bool {
	in := &v.c.p.Instrs[pc]
	if in.Pred.None {
		return true
	}
	c := v.c
	if !c.geo.known || len(c.vals) <= pc || !c.vals[pc].reached {
		return false
	}
	for t := int64(0); t < c.geo.nThreads; t++ {
		val, ok := c.guardHolds(pc, t)
		if !ok || !val {
			return false
		}
	}
	return true
}

// allUpTo returns the mask of every bit position up to and including
// the highest set bit of m — the carry-widening closure for additive
// and multiplicative transfers, where bit k of the result depends only
// on source bits 0..k.
func allUpTo(m uint32) uint32 {
	if m == 0 {
		return 0
	}
	return uint32(1)<<uint(bits.Len32(m)) - 1
}

// transfer rewrites the live-out state `st` into the live-in state of
// pc in place.
func (v *vulnAnalysis) transfer(pc int, st *liveState) {
	in := &v.c.p.Instrs[pc]

	// The destination's live-out bits drive the source transfers.
	var dl uint32
	if r, ok := in.Writes(); ok && !r.IsSpecial() && int(r) < isa.MaxGPR {
		dl = st.gpr[r]
		if v.alwaysExec[pc] {
			st.gpr[r] = 0 // every lane overwrites: prior value dies here
		}
	}
	pdstLive := false
	if p, ok := writtenPred(in); ok && int(p) < isa.NumPreds {
		pdstLive = st.pred&(1<<p) != 0
		if v.alwaysExec[pc] {
			st.pred &^= 1 << p
		}
	}

	// Guards are always live: the executing-lane count they select
	// feeds warp statistics (ActiveHist, ThreadInstrs, per-unit run
	// lengths) that the figures print, so a corrupted guard is always
	// observable even when the guarded instruction's result is dead.
	if !in.Pred.None && int(in.Pred.Index) < isa.NumPreds {
		st.pred |= 1 << in.Pred.Index
	}

	genReg := func(o isa.Operand, m uint32) {
		if m == 0 || o.IsImm || o.Reg.IsSpecial() || int(o.Reg) >= isa.MaxGPR {
			return
		}
		st.gpr[o.Reg] |= m
	}
	full := uint32(0xFFFFFFFF)

	//simlint:ignore exhaustive-switch — masking transfers are per-shape, not per-opcode; the default conservatively marks every source bit live whenever any result bit is, which is sound for any future opcode
	switch in.Op {
	case isa.OpLD:
		// The effective address is the fault target and drives
		// coalescing/bank-conflict timing: the base is fully live.
		genReg(in.Src[0], full)
	case isa.OpST, isa.OpATOM:
		genReg(in.Src[0], full)
		// Stored (or atomically added) data reaches memory, the
		// kernel's output domain: fully live regardless of dl.
		genReg(in.Src[1], full)
	case isa.OpBRA, isa.OpBAR, isa.OpEXIT, isa.OpNOP:
		// Control ops read no GPRs (the guard was handled above).
	case isa.OpSETP:
		// The comparison feeds only the destination predicate: sources
		// are live exactly when that predicate is.
		if pdstLive {
			genReg(in.Src[0], full)
			genReg(in.Src[1], full)
		}
	case isa.OpSELP:
		genReg(in.Src[0], dl)
		genReg(in.Src[1], dl)
		if dl != 0 && int(in.PSrcA) < isa.NumPreds {
			st.pred |= 1 << in.PSrcA
		}
	case isa.OpPAND:
		if pdstLive {
			if int(in.PSrcA) < isa.NumPreds {
				st.pred |= 1 << in.PSrcA
			}
			if int(in.PSrcB) < isa.NumPreds {
				st.pred |= 1 << in.PSrcB
			}
		}
	case isa.OpPNOT:
		if pdstLive && int(in.PSrcA) < isa.NumPreds {
			st.pred |= 1 << in.PSrcA
		}
	case isa.OpMOV, isa.OpXOR, isa.OpOR, isa.OpNOT:
		if in.Op == isa.OpOR && in.Src[1].IsImm {
			// Bits forced to 1 by the immediate mask the register.
			genReg(in.Src[0], dl&^in.Src[1].Imm)
			break
		}
		for i := 0; i < in.Op.NumSrc(); i++ {
			genReg(in.Src[i], dl)
		}
	case isa.OpAND:
		if in.Src[1].IsImm {
			genReg(in.Src[0], dl&in.Src[1].Imm)
		} else if in.Src[0].IsImm {
			genReg(in.Src[1], dl&in.Src[0].Imm)
		} else {
			genReg(in.Src[0], dl)
			genReg(in.Src[1], dl)
		}
	case isa.OpSHL:
		if in.Src[1].IsImm && in.Src[1].Imm < 32 {
			genReg(in.Src[0], dl>>in.Src[1].Imm)
		} else {
			m := uint32(0)
			if dl != 0 {
				m = full
			}
			genReg(in.Src[0], m)
			genReg(in.Src[1], m)
		}
	case isa.OpSHR:
		if in.Src[1].IsImm && in.Src[1].Imm < 32 {
			genReg(in.Src[0], dl<<in.Src[1].Imm)
		} else {
			m := uint32(0)
			if dl != 0 {
				m = full
			}
			genReg(in.Src[0], m)
			genReg(in.Src[1], m)
		}
	case isa.OpSAR:
		if in.Src[1].IsImm && in.Src[1].Imm < 32 {
			k := in.Src[1].Imm
			m := dl << k
			if dl>>(31-k) != 0 {
				m |= 1 << 31 // replicated sign bit feeds the high window
			}
			genReg(in.Src[0], m)
		} else {
			m := uint32(0)
			if dl != 0 {
				m = full
			}
			genReg(in.Src[0], m)
			genReg(in.Src[1], m)
		}
	case isa.OpIADD, isa.OpISUB, isa.OpIMUL:
		m := allUpTo(dl)
		genReg(in.Src[0], m)
		genReg(in.Src[1], m)
	case isa.OpIMAD:
		m := allUpTo(dl)
		genReg(in.Src[0], m)
		genReg(in.Src[1], m)
		genReg(in.Src[2], m)
	default:
		// Comparisons (imin/imax), floating point, SFU: every source
		// bit can reach every result bit, so sources are fully live
		// whenever any result bit is.
		m := uint32(0)
		if dl != 0 {
			m = full
		}
		for i := 0; i < in.Op.NumSrc(); i++ {
			genReg(in.Src[i], m)
		}
	}
}

// report classifies every PC from the liveness fixpoint.
func (v *vulnAnalysis) report() *VulnReport {
	c := v.c
	r := &VulnReport{Kernel: c.p.Name}
	for pc := range c.p.Instrs {
		in := &c.p.Instrs[pc]
		pv := PCVuln{PC: pc, Line: in.Line, Eligible: vulnEligible(in.Op)}
		out := v.outState(pc)
		switch {
		case !c.reachable[pc]:
			pv.Class = VulnUnknown
			pv.Reason = "unreachable: never analyzed, protected defensively"
		case in.Op.Unit() == isa.UnitLDST:
			pv.Class = VulnACE
			pv.LiveBits = 0xFFFFFFFF
			pv.Reason = "memory op: the effective address is the fault target"
		case in.Op.Unit() == isa.UnitCTRL:
			pv.Class = VulnACE
			pv.Reason = "control flow"
		case in.Op == isa.OpNOP:
			pv.Class = VulnUnACE
			pv.Reason = "no architectural result"
		case in.Op == isa.OpSETP || in.Op == isa.OpPAND || in.Op == isa.OpPNOT:
			if out.pred&(1<<in.PDst) != 0 {
				pv.Class = VulnACE
				pv.LiveBits = 1
				pv.Reason = fmt.Sprintf("defines live predicate p%d", in.PDst)
			} else {
				pv.Class = VulnUnACE
				pv.Reason = fmt.Sprintf("predicate p%d is dead on every path", in.PDst)
			}
		default:
			var dl uint32
			if dst, ok := in.Writes(); ok && !dst.IsSpecial() && int(dst) < isa.MaxGPR {
				dl = out.gpr[dst]
			}
			pv.LiveBits = dl
			if dl != 0 {
				pv.Class = VulnACE
				pv.Reason = fmt.Sprintf("result bits 0x%08x reach observable state", dl)
			} else {
				pv.Class = VulnUnACE
				pv.Reason = "result is dead on every path"
			}
		}
		if pv.Eligible {
			r.EligiblePCs++
			switch pv.Class {
			case VulnACE:
				r.ACE++
			case VulnUnACE:
				r.UnACE++
			case VulnUnknown:
				r.Unknown++
			}
		}
		r.PCs = append(r.PCs, pv)
	}
	return r
}
