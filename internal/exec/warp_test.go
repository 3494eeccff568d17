package exec

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"warped/internal/isa"
	"warped/internal/simt"
)

// refLane is a scalar reference of the ISA's lane semantics, written
// lane by lane and kept apart from the warp-wide table it checks: the
// value of one lane of a data op, a SETP (0 or 1) or a memory op's
// effective address, from that lane's sources a, b and c (SELP's
// selector in c).
func refLane(in *isa.Instr, a, b, c uint32) uint32 {
	f := math.Float32frombits
	fr := func(x float32) uint32 { return math.Float32bits(x) }
	sfu := func(g func(float64) float64) uint32 { return fr(float32(g(float64(f(a))))) }
	switch in.Op {
	case isa.OpMOV:
		return a
	case isa.OpIADD:
		return a + b
	case isa.OpISUB:
		return a - b
	case isa.OpIMUL:
		return uint32(int32(a) * int32(b))
	case isa.OpIMAD:
		return uint32(int32(a)*int32(b)) + c
	case isa.OpIMIN:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case isa.OpIMAX:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case isa.OpAND:
		return a & b
	case isa.OpOR:
		return a | b
	case isa.OpXOR:
		return a ^ b
	case isa.OpNOT:
		return ^a
	case isa.OpSHL:
		return a << (b % 32)
	case isa.OpSHR:
		return a >> (b % 32)
	case isa.OpSAR:
		return uint32(int32(a) >> (b % 32))
	case isa.OpFADD:
		return fr(f(a) + f(b))
	case isa.OpFSUB:
		return fr(f(a) - f(b))
	case isa.OpFMUL:
		return fr(f(a) * f(b))
	case isa.OpFFMA:
		return fr(float32(float64(f(a))*float64(f(b)) + float64(f(c))))
	case isa.OpFMIN:
		return fr(float32(math.Min(float64(f(a)), float64(f(b)))))
	case isa.OpFMAX:
		return fr(float32(math.Max(float64(f(a)), float64(f(b)))))
	case isa.OpFNEG: // sign-bit operations: NaN payloads pass unchanged
		return a ^ 1<<31
	case isa.OpFABS:
		return a &^ (1 << 31)
	case isa.OpI2F:
		return fr(float32(int32(a)))
	case isa.OpF2I:
		v := float64(f(a))
		switch {
		case math.IsNaN(v):
			return 0
		case v >= math.MaxInt32:
			return math.MaxInt32
		case v <= math.MinInt32:
			return 1 << 31
		}
		return uint32(int32(v))
	case isa.OpSELP:
		if c != 0 {
			return a
		}
		return b
	case isa.OpFSIN:
		return sfu(math.Sin)
	case isa.OpFCOS:
		return sfu(math.Cos)
	case isa.OpFSQRT:
		return sfu(math.Sqrt)
	case isa.OpFRSQRT:
		return sfu(func(x float64) float64 { return 1 / math.Sqrt(x) })
	case isa.OpFRCP:
		return sfu(func(x float64) float64 { return 1 / x })
	case isa.OpFEX2:
		return sfu(math.Exp2)
	case isa.OpFLG2:
		return sfu(math.Log2)
	case isa.OpFDIV:
		return fr(f(a) / f(b))
	case isa.OpSETP:
		return refSetp(in.Cmp, in.CmpTy, a, b)
	case isa.OpLD, isa.OpST, isa.OpATOM:
		return a + uint32(in.Off)
	case isa.OpNOP, isa.OpPAND, isa.OpPNOT, isa.OpBRA, isa.OpBAR, isa.OpEXIT:
		panic("refLane: " + in.Op.String() + " computes no lane value")
	}
	panic("refLane: unknown opcode")
}

// refSetp compares in int64 (both integer types) or float64, with a
// NaN on either side satisfying only NE.
func refSetp(cmp isa.CmpOp, ty isa.CmpType, a, b uint32) uint32 {
	var x, y float64
	switch ty {
	case isa.CmpS32:
		x, y = float64(int32(a)), float64(int32(b))
	case isa.CmpU32:
		x, y = float64(a), float64(b)
	case isa.CmpF32:
		x, y = float64(math.Float32frombits(a)), float64(math.Float32frombits(b))
		if math.IsNaN(x) || math.IsNaN(y) {
			return b2u(cmp == isa.CmpNE)
		}
	}
	var t bool
	switch cmp {
	case isa.CmpEQ:
		t = x == y
	case isa.CmpNE:
		t = x != y
	case isa.CmpLT:
		t = x < y
	case isa.CmpLE:
		t = x <= y
	case isa.CmpGT:
		t = x > y
	case isa.CmpGE:
		t = x >= y
	}
	return b2u(t)
}

// dataOps are the opcodes Machine.Step runs through stepData.
var dataOps = []isa.Opcode{
	isa.OpMOV, isa.OpIADD, isa.OpISUB, isa.OpIMUL, isa.OpIMAD, isa.OpIMIN,
	isa.OpIMAX, isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOT, isa.OpSHL,
	isa.OpSHR, isa.OpSAR, isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFFMA,
	isa.OpFMIN, isa.OpFMAX, isa.OpFNEG, isa.OpFABS, isa.OpI2F, isa.OpF2I,
	isa.OpSELP, isa.OpFSIN, isa.OpFCOS, isa.OpFSQRT, isa.OpFRSQRT,
	isa.OpFRCP, isa.OpFEX2, isa.OpFLG2, isa.OpFDIV,
}

// randWord draws a lane value: raw bits (NaNs, infinities and
// subnormals included), a small integer, a plain float or a NaN.
func randWord(rng *rand.Rand) uint32 {
	switch rng.Intn(4) {
	case 0:
		return rng.Uint32()
	case 1:
		return uint32(rng.Intn(64) - 32)
	case 2:
		return math.Float32bits(float32(rng.NormFloat64() * 8))
	}
	return 0x7fc00000 | rng.Uint32()&0x3fffff // quiet NaN with a payload
}

// randMask draws an Executing mask: full, empty, one lane or random.
func randMask(rng *rand.Rand) simt.Mask {
	switch rng.Intn(4) {
	case 0:
		return simt.FullMask(32)
	case 1:
		return 0
	case 2:
		return 1 << uint(rng.Intn(32))
	}
	return simt.Mask(rng.Uint32())
}

// TestWarpTableMatchesScalarReference drives random instructions of
// every data op, every SETP comparison and type, and memory address
// computation through Machine.Step, with register, special and
// immediate operands under full, partial, single-lane and empty masks,
// with and without a Perturb hook. Executing lanes must equal refLane
// (perturbed where the hook says so, the hook called once per executing
// lane in ascending order), every other lane of the destination must
// keep its value, and with a hook Record.Recompute must reproduce the
// unperturbed values from the captured sources.
func TestWarpTableMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	var instrs []isa.Instr
	for _, op := range dataOps {
		instrs = append(instrs, isa.Instr{Op: op, Dst: 9})
	}
	for cmp := isa.CmpEQ; cmp <= isa.CmpGE; cmp++ {
		for _, ty := range []isa.CmpType{isa.CmpS32, isa.CmpU32, isa.CmpF32} {
			instrs = append(instrs, isa.Instr{Op: isa.OpSETP, Cmp: cmp, CmpTy: ty, PDst: 2})
		}
	}
	instrs = append(instrs, isa.Instr{Op: isa.OpLD, Space: isa.SpaceShared, Dst: 9})
	specials := []isa.Reg{isa.RegTIDX, isa.RegLANEID, isa.RegCTAIDX, isa.RegNTIDX}
	for trial := 0; trial < 40; trial++ {
		for _, base := range instrs {
			for _, hooked := range []bool{false, true} {
				in := base
				checkWarpStep(t, rng, &in, specials, hooked)
			}
		}
	}
}

func checkWarpStep(t *testing.T, rng *rand.Rand, in *isa.Instr, specials []isa.Reg, hooked bool) {
	t.Helper()
	isLD := in.Op == isa.OpLD
	// Sources: a register (r0..r2), a special register or an immediate.
	for i := 0; i < in.Op.NumSrc(); i++ {
		switch rng.Intn(3) {
		case 0:
			in.Src[i] = isa.RegOp(isa.Reg(i))
		case 1:
			in.Src[i] = isa.RegOp(specials[rng.Intn(len(specials))])
		default:
			in.Src[i] = isa.ImmOp(randWord(rng))
		}
	}
	if isLD {
		in.Src[0] = isa.RegOp(0)
		in.Off = int32(4 * rng.Intn(16))
	}
	in.PSrcA = 1 // SELP's selector
	in.Pred = isa.PredRef{Index: 0}
	p := &isa.Program{Name: "t", NumRegs: 16, Instrs: []isa.Instr{*in, {Op: isa.OpEXIT, Pred: isa.AlwaysPred()}}}

	var calls []int
	var perturb Perturb
	flipLane := rng.Intn(32)
	if hooked {
		perturb = func(thread int, unit isa.UnitClass, golden uint32) uint32 {
			if unit != in.Op.Unit() {
				t.Errorf("%v: perturb got unit %v", in.Op, unit)
			}
			calls = append(calls, thread)
			if thread == flipLane {
				return golden ^ 0x10
			}
			return golden
		}
	}
	m, ws := newTestMachine(t, p, 32, newCtx(), perturb)
	r := ws.Regs
	for _, sp := range specials {
		var v [32]uint32
		for l := range v {
			v[l] = randWord(rng)
		}
		r.SetSpecial(sp, v)
	}
	for reg := isa.Reg(0); reg < 16; reg++ {
		for l := 0; l < 32; l++ {
			r.Set(reg, l, randWord(rng))
		}
	}
	if isLD { // in-bounds, word-aligned shared addresses over random words
		for a := uint32(0); a < 4096; a += 4 {
			if err := ws.Mem.Shared.Store32(a, rng.Uint32()); err != nil {
				t.Fatal(err)
			}
		}
		for l := 0; l < 32; l++ {
			r.Set(0, l, uint32(4*rng.Intn(512)))
		}
	}
	r.Pred[0] = randMask(rng)
	r.Pred[1] = simt.Mask(rng.Uint32())
	r.Pred[2] = simt.Mask(rng.Uint32())
	executing := r.Pred[0]

	// Expected values, from the sources as they are before the step.
	var src [3][32]uint32
	var want, before [32]uint32
	predBefore := r.Pred[2]
	for l := 0; l < 32; l++ {
		for i := 0; i < in.Op.NumSrc(); i++ {
			if o := in.Src[i]; o.IsImm {
				src[i][l] = o.Imm
			} else {
				src[i][l] = r.Read(o.Reg, l)
			}
		}
		if in.Op == isa.OpSELP {
			src[2][l] = uint32(r.Pred[1]>>uint(l)) & 1
		}
		want[l] = refLane(in, src[0][l], src[1][l], src[2][l])
		before[l] = r.Read(9, l)
	}
	golden := want
	if hooked && executing.Has(flipLane) {
		want[flipLane] ^= 0x10
	}

	rec, err := m.Step(ws)
	if err != nil {
		t.Fatalf("%v: %v", in.Op, err)
	}
	if rec.Executing != executing {
		t.Fatalf("%v: executing %#x, want %#x", in.Op, rec.Executing, executing)
	}
	var order []int
	for rem := uint32(executing); rem != 0; rem &= rem - 1 {
		order = append(order, bits.TrailingZeros32(rem))
	}
	if hooked && !equalInts(calls, order) {
		t.Errorf("%v mask %#x: perturb called for lanes %v, want %v", in.Op, executing, calls, order)
	}
	for l := 0; l < 32; l++ {
		on := executing.Has(l)
		if on && rec.Vals[l] != want[l] {
			t.Errorf("%v mask %#x hooked=%v lane %d: value %#x, reference %#x (sources %#x %#x %#x)",
				in.Op, executing, hooked, l, rec.Vals[l], want[l], src[0][l], src[1][l], src[2][l])
		}
		switch {
		case in.Op == isa.OpSETP:
			got, was := r.Pred[2].Has(l), predBefore.Has(l)
			if on && got != (want[l] != 0) || !on && got != was {
				t.Errorf("%v mask %#x lane %d: predicate %v (before %v), value %#x", in.Op, executing, l, got, was, want[l])
			}
		case isLD:
			wantDst := before[l]
			if on {
				wantDst, _ = ws.Mem.Shared.Load32(want[l])
			}
			if got := r.Read(9, l); got != wantDst {
				t.Errorf("ld mask %#x lane %d: r9 %#x, want %#x", executing, l, got, wantDst)
			}
		default:
			wantDst := before[l]
			if on {
				wantDst = want[l]
			}
			if got := r.Read(9, l); got != wantDst {
				t.Errorf("%v mask %#x hooked=%v lane %d: r9 %#x, want %#x", in.Op, executing, hooked, l, got, wantDst)
			}
		}
	}
	if !hooked {
		return
	}
	var redo [32]uint32
	if !rec.Recompute(&redo) {
		t.Fatalf("%v: not recomputable", in.Op)
	}
	for _, l := range order {
		if redo[l] != golden[l] {
			t.Errorf("%v lane %d: recomputed %#x, reference %#x", in.Op, l, redo[l], golden[l])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
