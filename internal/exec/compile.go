package exec

import (
	"fmt"
	"math"
	"math/bits"

	"warped/internal/isa"
	"warped/internal/simt"
)

// warpFn computes one instruction's value on the lanes of a warp:
// o[l] from a[l], b[l] and c[l], the operand slots the opcode reads
// (unused slots may be nil). The element-wise ops compute all 32 lanes,
// whichever execute; the SFU ops compute only the lanes in mask, which
// must include every executing lane. d carries the compile-time facts
// some ops read (SETP's sign flip, a memory op's offset). One table of
// these functions serves both Machine.Step and Record.Recompute, so
// execution and DMR verification share one implementation of the ISA.
type warpFn func(d *Decoded, o, a, b, c *[32]uint32, mask simt.Mask)

// stepFn applies one pre-decoded instruction to a warp. Each opcode
// family binds its own step function at compile time, so the per-cycle
// path is a single indirect call instead of a switch walk.
type stepFn func(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error)

// srcOp is a pre-resolved source operand: a 32-lane window into the
// register slab, or an immediate broadcast to 32 lanes, resolved once
// at compile time.
const (
	srcImm uint8 = iota
	srcGPR
	srcSpec
)

type srcOp struct {
	lanesOff int32       // element offset of lane 0 within the gpr/spec slab
	bcast    *[32]uint32 // the immediate in every lane (kind == srcImm)
	kind     uint8
}

// lanes resolves the operand against a warp's registers: its 32 lane
// values, read in place.
func (s *srcOp) lanes(r *Regs) *[32]uint32 {
	switch s.kind {
	case srcGPR:
		return (*[32]uint32)(r.gpr[s.lanesOff:])
	case srcSpec:
		return (*[32]uint32)(r.spec[s.lanesOff:])
	}
	return s.bcast
}

// Decoded is one pre-decoded instruction: every per-cycle decision the
// interpreter used to re-derive from isa.Instr — unit class, operand
// windows, guard, compute and step functions — resolved once at launch.
type Decoded struct {
	Instr *isa.Instr // source instruction (diagnostics, disassembly)

	compute warpFn // warp-wide evaluation; nil for control/pred ops
	step    stepFn

	Op    isa.Opcode
	Unit  isa.UnitClass
	Space isa.MemSpace

	NSrc     uint8
	NumReads uint8 // general registers read (ReadRegs[:NumReads])
	HasDst   bool
	selp     bool   // fold the selector predicate into source slot 2
	flip     uint32 // SETP: XORed into both sides of an ordered compare

	Dst      isa.Reg
	ReadRegs [3]isa.Reg

	Pred               isa.PredRef
	PDst, PSrcA, PSrcB uint8

	src [3]srcOp
	Off int32

	Target, Reconv int
}

// Compiled is a program lowered to its flat pre-decoded stream. Compile
// once per launch; the stream is immutable and safe to share across SMs.
type Compiled struct {
	prog *isa.Program
	code []Decoded
}

// Prog returns the source program.
func (c *Compiled) Prog() *isa.Program { return c.prog }

// Code returns the pre-decoded instruction stream, indexed by PC.
func (c *Compiled) Code() []Decoded { return c.code }

// Compile lowers a program into its pre-decoded form: per-op step and
// compute functions, packed operand windows, and precomputed read sets.
// Every immediate operand is broadcast once, into one slab the stream
// shares.
func Compile(p *isa.Program) (*Compiled, error) {
	code := make([]Decoded, len(p.Instrs))
	nImm := 0
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		for i := 0; i < in.Op.NumSrc(); i++ {
			if in.Src[i].IsImm {
				nImm++
			}
		}
	}
	imms := make([][32]uint32, nImm)
	nImm = 0
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		d := &code[pc]
		d.Instr = in
		d.Op = in.Op
		d.Unit = in.Op.Unit()
		d.Space = in.Space
		d.NSrc = uint8(in.Op.NumSrc())
		d.HasDst = in.Op.HasDst()
		d.selp = in.Op == isa.OpSELP
		d.Dst = in.Dst
		d.Pred = in.Pred
		d.PDst, d.PSrcA, d.PSrcB = in.PDst, in.PSrcA, in.PSrcB
		d.Off = in.Off
		d.Target, d.Reconv = in.Target, in.Reconv
		for i := 0; i < int(d.NSrc); i++ {
			o := in.Src[i]
			switch {
			case o.IsImm:
				b := &imms[nImm]
				nImm++
				for l := range b {
					b[l] = o.Imm
				}
				d.src[i] = srcOp{kind: srcImm, bcast: b}
			case o.Reg.IsSpecial():
				d.src[i] = srcOp{kind: srcSpec, lanesOff: (int32(o.Reg-isa.SpecialBase) - 1) * 32}
			default:
				d.src[i] = srcOp{kind: srcGPR, lanesOff: int32(o.Reg) * 32}
				d.ReadRegs[d.NumReads] = o.Reg
				d.NumReads++
			}
		}
		if in.Op == isa.OpSETP && in.CmpTy == isa.CmpS32 {
			d.flip = 1 << 31 // signed order is unsigned order with the sign bit flipped
		}
		d.compute = bindWarp(in)
		d.step = bindStep(in.Op)
		if d.step == nil {
			return nil, fmt.Errorf("exec: compile %s pc %d: no execution binding for op %s", p.Name, pc, in.Op)
		}
	}
	return &Compiled{prog: p, code: code}, nil
}

// bindStep selects the step function for an opcode. A nil return means
// the opcode has no execution semantics — Compile turns it into an
// error so an unbound opcode fails at launch, not mid-kernel.
func bindStep(op isa.Opcode) stepFn {
	switch op {
	case isa.OpBRA:
		return stepBranch
	case isa.OpEXIT:
		return stepExit
	case isa.OpBAR:
		return stepBarrier
	case isa.OpNOP:
		return stepNOP
	case isa.OpPAND, isa.OpPNOT:
		return stepPredLogic
	case isa.OpSETP:
		return stepSETP
	case isa.OpLD, isa.OpST, isa.OpATOM:
		return stepMemOp
	case isa.OpMOV, isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD, isa.OpIMIN,
		isa.OpIMAX, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOT, isa.OpSHL,
		isa.OpSHR, isa.OpSAR, isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFFMA,
		isa.OpFMIN, isa.OpFMAX, isa.OpFNEG, isa.OpFABS, isa.OpI2F, isa.OpF2I,
		isa.OpSELP, isa.OpFSIN, isa.OpFCOS, isa.OpFSQRT, isa.OpFRSQRT,
		isa.OpFRCP, isa.OpFEX2, isa.OpFLG2, isa.OpFDIV:
		return stepData
	}
	return nil
}

// bindWarp resolves the warp-wide compute function for an instruction:
// SETP by its comparison and operand type, memory ops to their address
// computation, plain data ops from warpFns. Control and predicate-file
// ops have none.
func bindWarp(in *isa.Instr) warpFn {
	if in.Op.Unit() == isa.UnitLDST {
		return warpAddr
	}
	if in.Op != isa.OpSETP {
		return warpFns[in.Op]
	}
	if int(in.Cmp) >= len(setpInt) {
		return setpFalse
	}
	switch in.CmpTy {
	case isa.CmpS32, isa.CmpU32:
		return setpInt[in.Cmp]
	case isa.CmpF32:
		return setpF32[in.Cmp]
	}
	return setpFalse
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func f32(u uint32) float32 { return math.Float32frombits(u) }

// warpAddr computes a memory op's effective addresses, a + offset.
func warpAddr(d *Decoded, o, a, _, _ *[32]uint32, _ simt.Mask) {
	off := uint32(d.Off)
	for i := range o {
		o[i] = a[i] + off
	}
}

// sfu1 binds a unary float32 SFU op. It computes only the lanes in mask:
// a transcendental costs far more than the loop over the mask.
func sfu1(f func(float64) float64) warpFn {
	return func(_ *Decoded, o, a, _, _ *[32]uint32, mask simt.Mask) {
		for rem := uint32(mask); rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			o[l] = math.Float32bits(float32(f(float64(f32(a[l])))))
		}
	}
}

// warpFns is the warp-wide execution table for plain data opcodes: the
// single implementation of the ISA's lane semantics, bound into each
// Decoded by bindWarp, run by Machine.Step and replayed by
// Record.Recompute.
var warpFns = [isa.NumOpcodes]warpFn{
	isa.OpMOV: func(_ *Decoded, o, a, _, _ *[32]uint32, _ simt.Mask) { *o = *a },
	isa.OpIADD: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] + b[i]
		}
	},
	isa.OpISUB: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] - b[i]
		}
	},
	isa.OpIMUL: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = uint32(int32(a[i]) * int32(b[i]))
		}
	},
	isa.OpIMAD: func(_ *Decoded, o, a, b, c *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = uint32(int32(a[i])*int32(b[i])) + c[i]
		}
	},
	isa.OpIMIN: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = uint32(min(int32(a[i]), int32(b[i])))
		}
	},
	isa.OpIMAX: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = uint32(max(int32(a[i]), int32(b[i])))
		}
	},
	isa.OpAND: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] & b[i]
		}
	},
	isa.OpOR: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] | b[i]
		}
	},
	isa.OpXOR: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] ^ b[i]
		}
	},
	isa.OpNOT: func(_ *Decoded, o, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = ^a[i]
		}
	},
	isa.OpSHL: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] << (b[i] & 31)
		}
	},
	isa.OpSHR: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] >> (b[i] & 31)
		}
	},
	isa.OpSAR: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = uint32(int32(a[i]) >> (b[i] & 31))
		}
	},
	isa.OpFADD: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = math.Float32bits(f32(a[i]) + f32(b[i]))
		}
	},
	isa.OpFSUB: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = math.Float32bits(f32(a[i]) - f32(b[i]))
		}
	},
	isa.OpFMUL: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = math.Float32bits(f32(a[i]) * f32(b[i]))
		}
	},
	isa.OpFFMA: func(_ *Decoded, o, a, b, c *[32]uint32, _ simt.Mask) {
		// Fused multiply-add: single rounding, like hardware FFMA.
		for i := range o {
			o[i] = math.Float32bits(float32(float64(f32(a[i]))*float64(f32(b[i])) + float64(f32(c[i]))))
		}
	},
	isa.OpFMIN: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = math.Float32bits(float32(math.Min(float64(f32(a[i])), float64(f32(b[i])))))
		}
	},
	isa.OpFMAX: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = math.Float32bits(float32(math.Max(float64(f32(a[i])), float64(f32(b[i])))))
		}
	},
	isa.OpFNEG: func(_ *Decoded, o, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] ^ 0x80000000
		}
	},
	isa.OpFABS: func(_ *Decoded, o, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = a[i] &^ 0x80000000
		}
	},
	isa.OpI2F: func(_ *Decoded, o, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = math.Float32bits(float32(int32(a[i])))
		}
	},
	isa.OpF2I: func(_ *Decoded, o, a, _, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			v := f32(a[i])
			switch {
			case v != v: // NaN
				o[i] = 0
			case v >= math.MaxInt32:
				o[i] = uint32(math.MaxInt32)
			case v <= math.MinInt32:
				o[i] = 0x80000000 // int32 min
			default:
				o[i] = uint32(int32(v))
			}
		}
	},
	isa.OpSELP: func(_ *Decoded, o, a, b, c *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b[i]
			if c[i] != 0 {
				o[i] = a[i]
			}
		}
	},
	isa.OpFSIN:   sfu1(math.Sin),
	isa.OpFCOS:   sfu1(math.Cos),
	isa.OpFSQRT:  sfu1(math.Sqrt),
	isa.OpFRSQRT: sfu1(func(x float64) float64 { return 1 / math.Sqrt(x) }),
	isa.OpFRCP:   sfu1(func(x float64) float64 { return 1 / x }),
	isa.OpFEX2:   sfu1(math.Exp2),
	isa.OpFLG2:   sfu1(math.Log2),
	isa.OpFDIV: func(_ *Decoded, o, a, b, _ *[32]uint32, mask simt.Mask) {
		for rem := uint32(mask); rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros32(rem)
			o[l] = math.Float32bits(f32(a[l]) / f32(b[l]))
		}
	},
}

// setpInt compares integer lanes to 0 or 1, indexed by isa.CmpOp. S32
// and U32 share it: Compile sets d.flip to the sign bit for S32, which
// maps two's-complement order onto unsigned order.
var setpInt = [...]warpFn{
	isa.CmpEQ: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(a[i] == b[i])
		}
	},
	isa.CmpNE: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(a[i] != b[i])
		}
	},
	isa.CmpLT: func(d *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		f := d.flip
		for i := range o {
			o[i] = b2u(a[i]^f < b[i]^f)
		}
	},
	isa.CmpLE: func(d *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		f := d.flip
		for i := range o {
			o[i] = b2u(a[i]^f <= b[i]^f)
		}
	},
	isa.CmpGT: func(d *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		f := d.flip
		for i := range o {
			o[i] = b2u(a[i]^f > b[i]^f)
		}
	},
	isa.CmpGE: func(d *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		f := d.flip
		for i := range o {
			o[i] = b2u(a[i]^f >= b[i]^f)
		}
	},
}

// setpF32 compares float32 lanes to 0 or 1, indexed by isa.CmpOp. Go's
// float comparisons are IEEE's: with a NaN on either side only NE holds.
var setpF32 = [...]warpFn{
	isa.CmpEQ: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(f32(a[i]) == f32(b[i]))
		}
	},
	isa.CmpNE: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(f32(a[i]) != f32(b[i]))
		}
	},
	isa.CmpLT: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(f32(a[i]) < f32(b[i]))
		}
	},
	isa.CmpLE: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(f32(a[i]) <= f32(b[i]))
		}
	},
	isa.CmpGT: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(f32(a[i]) > f32(b[i]))
		}
	},
	isa.CmpGE: func(_ *Decoded, o, a, b, _ *[32]uint32, _ simt.Mask) {
		for i := range o {
			o[i] = b2u(f32(a[i]) >= f32(b[i]))
		}
	},
}

// setpFalse answers 0 on every lane: a SETP whose comparison or operand
// type is outside the ISA's never holds.
func setpFalse(_ *Decoded, o, _, _, _ *[32]uint32, _ simt.Mask) { *o = [32]uint32{} }
