package exec

import (
	"fmt"
	"math"

	"warped/internal/isa"
)

// laneFn evaluates one lane of a data-processing opcode from raw source
// values. Unused source slots are ignored by the bound function, so the
// caller may pass whatever happens to be in those registers.
type laneFn func(a, b, c uint32) uint32

// stepFn applies one pre-decoded instruction to a warp. Each opcode
// family binds its own step function at compile time, so the per-cycle
// path is a single indirect call instead of a switch walk.
type stepFn func(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error)

// srcOp is a pre-resolved source operand: either an immediate or a
// 32-lane window into the register slab, computed once at compile time.
const (
	srcImm uint8 = iota
	srcGPR
	srcSpec
)

type srcOp struct {
	lanesOff int32  // element offset of lane 0 within the gpr/spec slab
	imm      uint32 // immediate value (kind == srcImm)
	kind     uint8
}

// view resolves the operand against a warp's registers: a non-nil slice
// of 32 lane values, or (nil, imm) for immediates.
func (s *srcOp) view(r *Regs) ([]uint32, uint32) {
	if s.kind == srcGPR {
		return r.gpr[s.lanesOff : s.lanesOff+32 : s.lanesOff+32], 0
	}
	if s.kind == srcSpec {
		return r.spec[s.lanesOff : s.lanesOff+32 : s.lanesOff+32], 0
	}
	return nil, s.imm
}

// Decoded is one pre-decoded instruction: every per-cycle decision the
// interpreter used to re-derive from isa.Instr — unit class, operand
// windows, guard, compute and step functions — resolved once at launch.
type Decoded struct {
	Instr *isa.Instr // source instruction (diagnostics, disassembly)

	compute laneFn // pure per-lane evaluation; nil for control/pred ops
	step    stepFn

	Op    isa.Opcode
	Unit  isa.UnitClass
	Space isa.MemSpace

	NSrc     uint8
	NumReads uint8 // general registers read (ReadRegs[:NumReads])
	HasDst   bool
	selp     bool // fold the selector predicate into source slot 2

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
func Compile(p *isa.Program) (*Compiled, error) {
	code := make([]Decoded, len(p.Instrs))
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
				d.src[i] = srcOp{kind: srcImm, imm: o.Imm}
			case o.Reg.IsSpecial():
				d.src[i] = srcOp{kind: srcSpec, lanesOff: (int32(o.Reg-isa.SpecialBase) - 1) * 32}
			default:
				d.src[i] = srcOp{kind: srcGPR, lanesOff: int32(o.Reg) * 32}
				d.ReadRegs[d.NumReads] = o.Reg
				d.NumReads++
			}
		}
		d.compute = bindLane(in)
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

// bindLane resolves the pure compute function for an instruction.
// Plain data ops share the static laneFns table; SETP and memory ops
// close over their comparison/offset fields so the bound function stays
// a pure (a,b,c) → value map, replayable by the DMR layer.
func bindLane(in *isa.Instr) laneFn {
	switch in.Op {
	case isa.OpSETP:
		cmp, ty := in.Cmp, in.CmpTy
		return func(a, b, _ uint32) uint32 { return setpCompute(cmp, ty, a, b) }
	case isa.OpLD, isa.OpST, isa.OpATOM:
		off := uint32(in.Off)
		return func(a, _, _ uint32) uint32 { return a + off }
	case isa.OpNOP, isa.OpPAND, isa.OpPNOT, isa.OpBRA, isa.OpBAR, isa.OpEXIT:
		return nil
	case isa.OpMOV, isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD, isa.OpIMIN,
		isa.OpIMAX, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOT, isa.OpSHL,
		isa.OpSHR, isa.OpSAR, isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFFMA,
		isa.OpFMIN, isa.OpFMAX, isa.OpFNEG, isa.OpFABS, isa.OpI2F, isa.OpF2I,
		isa.OpSELP, isa.OpFSIN, isa.OpFCOS, isa.OpFSQRT, isa.OpFRSQRT,
		isa.OpFRCP, isa.OpFEX2, isa.OpFLG2, isa.OpFDIV:
		return laneFns[in.Op]
	}
	return nil
}

// laneFns is the per-op execution table for plain data opcodes: the
// single implementation of the ISA's lane semantics, bound into each
// Decoded by bindLane and replayed by Record.Recompute.
var laneFns = [isa.NumOpcodes]laneFn{
	isa.OpMOV:  func(a, _, _ uint32) uint32 { return a },
	isa.OpIADD: func(a, b, _ uint32) uint32 { return a + b },
	isa.OpISUB: func(a, b, _ uint32) uint32 { return a - b },
	isa.OpIMUL: func(a, b, _ uint32) uint32 { return uint32(int32(a) * int32(b)) },
	isa.OpIMAD: func(a, b, c uint32) uint32 { return uint32(int32(a)*int32(b)) + c },
	isa.OpIMIN: func(a, b, _ uint32) uint32 {
		if int32(a) < int32(b) {
			return a
		}
		return b
	},
	isa.OpIMAX: func(a, b, _ uint32) uint32 {
		if int32(a) > int32(b) {
			return a
		}
		return b
	},
	isa.OpAND: func(a, b, _ uint32) uint32 { return a & b },
	isa.OpOR:  func(a, b, _ uint32) uint32 { return a | b },
	isa.OpXOR: func(a, b, _ uint32) uint32 { return a ^ b },
	isa.OpNOT: func(a, _, _ uint32) uint32 { return ^a },
	isa.OpSHL: func(a, b, _ uint32) uint32 { return a << (b & 31) },
	isa.OpSHR: func(a, b, _ uint32) uint32 { return a >> (b & 31) },
	isa.OpSAR: func(a, b, _ uint32) uint32 { return uint32(int32(a) >> (b & 31)) },
	isa.OpFADD: func(a, b, _ uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a) + math.Float32frombits(b))
	},
	isa.OpFSUB: func(a, b, _ uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a) - math.Float32frombits(b))
	},
	isa.OpFMUL: func(a, b, _ uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a) * math.Float32frombits(b))
	},
	isa.OpFFMA: func(a, b, c uint32) uint32 {
		// Fused multiply-add: single rounding, like hardware FFMA.
		f := math.Float32frombits
		return math.Float32bits(float32(float64(f(a))*float64(f(b)) + float64(f(c))))
	},
	isa.OpFMIN: func(a, b, _ uint32) uint32 {
		f := math.Float32frombits
		return math.Float32bits(float32(math.Min(float64(f(a)), float64(f(b)))))
	},
	isa.OpFMAX: func(a, b, _ uint32) uint32 {
		f := math.Float32frombits
		return math.Float32bits(float32(math.Max(float64(f(a)), float64(f(b)))))
	},
	isa.OpFNEG: func(a, _, _ uint32) uint32 { return a ^ 0x80000000 },
	isa.OpFABS: func(a, _, _ uint32) uint32 { return a &^ 0x80000000 },
	isa.OpI2F:  func(a, _, _ uint32) uint32 { return math.Float32bits(float32(int32(a))) },
	isa.OpF2I: func(a, _, _ uint32) uint32 {
		v := math.Float32frombits(a)
		switch {
		case math.IsNaN(float64(v)):
			return 0
		case v >= math.MaxInt32:
			return uint32(math.MaxInt32)
		case v <= math.MinInt32:
			return 0x80000000 // int32 min
		}
		return uint32(int32(v))
	},
	isa.OpSELP: func(a, b, c uint32) uint32 {
		if c != 0 {
			return a
		}
		return b
	},
	isa.OpFSIN: func(a, _, _ uint32) uint32 {
		return math.Float32bits(float32(math.Sin(float64(math.Float32frombits(a)))))
	},
	isa.OpFCOS: func(a, _, _ uint32) uint32 {
		return math.Float32bits(float32(math.Cos(float64(math.Float32frombits(a)))))
	},
	isa.OpFSQRT: func(a, _, _ uint32) uint32 {
		return math.Float32bits(float32(math.Sqrt(float64(math.Float32frombits(a)))))
	},
	isa.OpFRSQRT: func(a, _, _ uint32) uint32 {
		return math.Float32bits(float32(1 / math.Sqrt(float64(math.Float32frombits(a)))))
	},
	isa.OpFRCP: func(a, _, _ uint32) uint32 {
		return math.Float32bits(float32(1 / float64(math.Float32frombits(a))))
	},
	isa.OpFEX2: func(a, _, _ uint32) uint32 {
		return math.Float32bits(float32(math.Exp2(float64(math.Float32frombits(a)))))
	},
	isa.OpFLG2: func(a, _, _ uint32) uint32 {
		return math.Float32bits(float32(math.Log2(float64(math.Float32frombits(a)))))
	},
	isa.OpFDIV: func(a, b, _ uint32) uint32 {
		return math.Float32bits(math.Float32frombits(a) / math.Float32frombits(b))
	},
}

// setpCompute evaluates a SETP comparison to 0 or 1.
func setpCompute(cmp isa.CmpOp, ty isa.CmpType, a, b uint32) uint32 {
	var t bool
	switch ty {
	case isa.CmpS32:
		t = cmpOrd(cmp, int64(int32(a)), int64(int32(b)))
	case isa.CmpU32:
		t = cmpOrd(cmp, int64(a), int64(b))
	case isa.CmpF32:
		fa := float64(math.Float32frombits(a))
		fb := float64(math.Float32frombits(b))
		if math.IsNaN(fa) || math.IsNaN(fb) {
			t = cmp == isa.CmpNE
		} else {
			switch cmp {
			case isa.CmpEQ:
				t = fa == fb
			case isa.CmpNE:
				t = fa != fb
			case isa.CmpLT:
				t = fa < fb
			case isa.CmpLE:
				t = fa <= fb
			case isa.CmpGT:
				t = fa > fb
			case isa.CmpGE:
				t = fa >= fb
			}
		}
	}
	if t {
		return 1
	}
	return 0
}
