// Package exec implements the functional semantics of the ISA: pure
// warp-wide ALU/SFU evaluation plus the architectural Machine that
// applies pre-decoded instructions to a warp's register file, memory,
// and control state.
//
// Programs are lowered once per launch by Compile into a flat stream of
// Decoded instructions (per-op step and warp-wide compute functions,
// packed operand windows); the timing simulator (internal/sim) builds
// one Machine per SM and calls Machine.Step at issue time
// ("execute-at-issue"). Warped-DMR (internal/core) reuses the pre-bound
// compute functions via Record.Recompute to redundantly re-execute a
// warp-instruction and compare its lanes' results.
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

// Perturb is a fault-injection hook: given the thread slot (logical
// lane within the warp), the unit class, and the golden value (result
// for SP/SFU ops, effective address for LD/ST), it returns the possibly
// corrupted value. A nil Perturb means fault-free execution.
type Perturb func(thread int, unit isa.UnitClass, golden uint32) uint32

// Record is what one Machine.Step computed for one warp-instruction,
// for the timing model and the DMR layer. The instruction's static
// facts (opcode, unit, destination, memory space, read set) are read
// through Dec. PC and Executing double as the issue-time facts
// selective-protection policies decide from (core.PolicyFacts): both
// are computed during the step regardless, so arming a policy adds no
// work here.
//
// Machine.Step returns a Machine-owned Record that is reused on the
// next call; its per-lane arrays are only meaningful for Executing
// lanes. Copy the Record by value to keep it past the next Step.
type Record struct {
	PC        int
	Dec       *Decoded  // the executed instruction, pre-decoded
	Active    simt.Mask // path mask before guarding
	Executing simt.Mask // lanes that actually executed (guard applied)

	// Per-lane operand values captured at issue, for DMR re-execution
	// (Recompute). Only a Machine with a Perturb hook captures them: a
	// fault-free Machine computes straight from the register windows,
	// and the DMR engine of its SM, which no fault can reach, counts its
	// replays without recomputing them.
	SrcVals [3][32]uint32

	// Result values per lane (SP/SFU data ops and SETP), or effective
	// addresses (LD/ST/ATOM). Valid only for Executing lanes.
	Vals [32]uint32

	BankSer   int  // shared-memory serialization factor (LD/ST/ATOM)
	Divergent bool // a branch split the warp
}

// Recompute re-evaluates the recorded instruction from its captured
// source values (SrcVals) into out, through the same warp-wide function
// Step executed it with: the DMR layer's redundant execution. Every
// Executing lane of out is computed; other lanes may be. ok is false
// for opcodes that are not lane-computable.
func (r *Record) Recompute(out *[32]uint32) (ok bool) {
	d := r.Dec
	if d.compute == nil {
		return false
	}
	d.compute(d, out, &r.SrcVals[0], &r.SrcVals[1], &r.SrcVals[2], r.Executing)
	return true
}

// SrcRegs returns the general registers the recorded instruction reads.
func (r *Record) SrcRegs() []isa.Reg {
	return r.Dec.ReadRegs[:r.Dec.NumReads]
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
