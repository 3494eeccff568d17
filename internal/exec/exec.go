// Package exec implements the functional semantics of the ISA: pure
// per-lane ALU/SFU evaluation plus the architectural Machine that
// applies pre-decoded instructions to a warp's register file, memory,
// and control state.
//
// Programs are lowered once per launch by Compile into a flat stream of
// Decoded instructions (per-op step/compute functions, packed operand
// windows); the timing simulator (internal/sim) builds one Machine per
// SM and calls Machine.Step at issue time ("execute-at-issue").
// Warped-DMR (internal/core) reuses the pre-bound compute functions via
// Record.Recompute to redundantly re-execute lanes and compare results.
package exec

import (
	"warped/internal/isa"
	"warped/internal/simt"
)

// numSpecials is how many special read-only registers exist
// (RegTIDX..RegWARPID).
const numSpecials = int(isa.RegSpecialEnd-isa.SpecialBase) - 1

// Regs is the architectural register state of one warp: a view into a
// struct-of-arrays register slab (32 contiguous lane values per
// register) plus predicate masks. Views come from a RegFile (one slab
// per block) or NewRegs (a standalone single-warp slab).
type Regs struct {
	gpr  []uint32 // [reg*32+lane], numRegs*32 entries
	spec []uint32 // [special*32+lane], numSpecials*32 entries
	Pred [isa.NumPreds]simt.Mask
}

// RegFile is the register backing store of one thread block: a single
// struct-of-arrays slab indexed [warp][reg][lane], carved into per-warp
// views. One allocation per block instead of one per warp per register.
type RegFile struct {
	warps []Regs
}

// NewRegFile allocates register state for numWarps warps of numRegs
// general registers each.
func NewRegFile(numWarps, numRegs int) *RegFile {
	gpr := make([]uint32, numWarps*numRegs*32)
	spec := make([]uint32, numWarps*numSpecials*32)
	f := &RegFile{warps: make([]Regs, numWarps)}
	for i := range f.warps {
		f.warps[i] = Regs{
			gpr:  gpr[i*numRegs*32 : (i+1)*numRegs*32 : (i+1)*numRegs*32],
			spec: spec[i*numSpecials*32 : (i+1)*numSpecials*32 : (i+1)*numSpecials*32],
		}
	}
	return f
}

// Warp returns the register view of warp i.
func (f *RegFile) Warp(i int) *Regs { return &f.warps[i] }

// NewRegs allocates standalone register state for one warp with numRegs
// general registers (tests and single-warp tools; the simulator uses
// NewRegFile).
func NewRegs(numRegs int) *Regs {
	return NewRegFile(1, numRegs).Warp(0)
}

// gprLanes returns the 32-lane window of one general register.
func (r *Regs) gprLanes(reg isa.Reg) []uint32 {
	off := int(reg) * 32
	return r.gpr[off : off+32 : off+32]
}

// SetSpecial fills one special register's per-lane values.
func (r *Regs) SetSpecial(reg isa.Reg, vals [32]uint32) {
	copy(r.spec[(int(reg-isa.SpecialBase)-1)*32:], vals[:])
}

// Read returns the value of reg in the given lane slot.
func (r *Regs) Read(reg isa.Reg, lane int) uint32 {
	if reg.IsSpecial() {
		return r.spec[(int(reg-isa.SpecialBase)-1)*32+lane]
	}
	return r.gpr[int(reg)*32+lane]
}

// Set writes a general register in the given lane slot.
func (r *Regs) Set(reg isa.Reg, lane int, v uint32) {
	r.gpr[int(reg)*32+lane] = v
}

// Operand resolves an operand for a lane.
func (r *Regs) Operand(o isa.Operand, lane int) uint32 {
	if o.IsImm {
		return o.Imm
	}
	return r.Read(o.Reg, lane)
}

// Perturb is a fault-injection hook: given the thread slot (logical
// lane within the warp), the unit class, and the golden value (result
// for SP/SFU ops, effective address for LD/ST), it returns the possibly
// corrupted value. A nil Perturb means fault-free execution.
type Perturb func(thread int, unit isa.UnitClass, golden uint32) uint32

// Record describes everything the timing model and the DMR layer need
// to know about one executed warp-instruction. PC and Executing double
// as the issue-time facts selective-protection policies decide from
// (core.PolicyFacts): both are computed during the step regardless, so
// arming a policy adds no work here.
//
// Machine.Step returns a Machine-owned Record that is reused on the
// next call; its per-lane arrays are only meaningful for Executing
// lanes. Copy the Record by value to keep it past the next Step.
type Record struct {
	PC        int
	Instr     *isa.Instr
	Dec       *Decoded // pre-decoded form; nil for hand-built records
	Unit      isa.UnitClass
	Active    simt.Mask // path mask before guarding
	Executing simt.Mask // lanes that actually executed (guard applied)

	// Per-lane operand values captured at issue, for DMR re-execution.
	SrcVals [3][32]uint32

	// Result values per lane (SP/SFU data ops), or effective addresses
	// (LD/ST/ATOM). Valid only for Executing lanes.
	Vals [32]uint32

	// Memory behaviour (LD/ST/ATOM only).
	IsMem   bool
	Addrs   [32]uint32
	BankSer int // shared-memory serialization factor
	IsStore bool

	// Control behaviour.
	IsBranch  bool
	Taken     simt.Mask
	Divergent bool
	IsBarrier bool
	IsExit    bool

	// Registers written (for scoreboard release) and read.
	DstValid bool
	Dst      isa.Reg
}

// Recompute re-evaluates one lane of the recorded instruction from raw
// source values — the DMR layer's redundant execution. It dispatches
// through the pre-bound compute function when the record came from a
// Machine, falling back to interpreted Compute for hand-built records.
// ok is false for opcodes that are not lane-computable.
func (r *Record) Recompute(a, b, c uint32) (uint32, bool) {
	if r.Dec != nil {
		if r.Dec.compute == nil {
			return 0, false
		}
		return r.Dec.compute(a, b, c), true
	}
	return Compute(r.Instr, a, b, c)
}

// SrcRegs returns the general registers the recorded instruction reads,
// without allocating when the record carries its pre-decoded form.
func (r *Record) SrcRegs() []isa.Reg {
	if r.Dec != nil {
		return r.Dec.ReadRegs[:r.Dec.NumReads]
	}
	return r.Instr.Reads()
}

// guardMask returns the lanes of active that pass the guard predicate.
func guardMask(r *Regs, pred isa.PredRef, active simt.Mask) simt.Mask {
	if pred.None {
		return active
	}
	p := r.Pred[pred.Index]
	if pred.Negate {
		p = ^p
	}
	return active & p
}

// Compute evaluates one lane of a data-processing opcode from raw
// source values. It must stay a pure function: the DMR layer calls it
// again on a different physical lane and compares results. ok is false
// for opcodes that are not lane-computable (control, barriers).
//
// Compute dispatches through the same laneFns table the pre-decoded
// pipeline executes, so the two paths share one implementation.
func Compute(in *isa.Instr, a, b, c uint32) (val uint32, ok bool) {
	switch in.Op {
	case isa.OpSETP:
		return setpCompute(in.Cmp, in.CmpTy, a, b), true
	case isa.OpLD, isa.OpST, isa.OpATOM:
		// Effective address computation (what DMR verifies for memory ops).
		return a + uint32(in.Off), true
	case isa.OpNOP, isa.OpPAND, isa.OpPNOT, isa.OpBRA, isa.OpBAR, isa.OpEXIT:
		// Control and predicate-file ops have no lane-computable result;
		// the DMR layer verifies them by other means (or not at all).
		return 0, false
	case isa.OpMOV, isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD, isa.OpIMIN,
		isa.OpIMAX, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOT, isa.OpSHL,
		isa.OpSHR, isa.OpSAR, isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFFMA,
		isa.OpFMIN, isa.OpFMAX, isa.OpFNEG, isa.OpFABS, isa.OpI2F, isa.OpF2I,
		isa.OpSELP, isa.OpFSIN, isa.OpFCOS, isa.OpFSQRT, isa.OpFRSQRT,
		isa.OpFRCP, isa.OpFEX2, isa.OpFLG2, isa.OpFDIV:
		return laneFns[in.Op](a, b, c), true
	}
	return 0, false
}

func cmpOrd(c isa.CmpOp, a, b int64) bool {
	switch c {
	case isa.CmpEQ:
		return a == b
	case isa.CmpNE:
		return a != b
	case isa.CmpLT:
		return a < b
	case isa.CmpLE:
		return a <= b
	case isa.CmpGT:
		return a > b
	case isa.CmpGE:
		return a >= b
	}
	return false
}
