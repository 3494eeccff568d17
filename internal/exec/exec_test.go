package exec

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"warped/internal/isa"
	"warped/internal/mem"
	"warped/internal/simt"
)

func fb(f float32) uint32   { return math.Float32bits(f) }
func negU32(v int32) uint32 { return uint32(-v) }
func ff(u uint32) float32   { return math.Float32frombits(u) }
func instr(op isa.Opcode) *isa.Instr {
	return &isa.Instr{Op: op, Pred: isa.AlwaysPred()}
}

// compute evaluates in the way the DMR layer replays it: Compile binds
// its warp-wide compute function, and Record.Recompute runs it over a
// full warp whose every lane holds the sources a, b and c. Every lane
// must agree; their value is the result.
func compute(in *isa.Instr, a, b, c uint32) (uint32, bool) {
	comp, err := Compile(&isa.Program{Name: "t", Instrs: []isa.Instr{*in}})
	if err != nil {
		panic(err)
	}
	rec := Record{Dec: &comp.Code()[0], Executing: simt.FullMask(32)}
	for l := 0; l < 32; l++ {
		rec.SrcVals[0][l], rec.SrcVals[1][l], rec.SrcVals[2][l] = a, b, c
	}
	var out [32]uint32
	if !rec.Recompute(&out) {
		return 0, false
	}
	for l, v := range out {
		if v != out[0] {
			panic(fmt.Sprintf("%v: lane %d computed %#x, lane 0 %#x", in.Op, l, v, out[0]))
		}
	}
	return out[0], true
}

func TestComputeIntegerOps(t *testing.T) {
	cases := []struct {
		op      isa.Opcode
		a, b, c uint32
		want    uint32
	}{
		{isa.OpMOV, 7, 0, 0, 7},
		{isa.OpIADD, 5, 3, 0, 8},
		{isa.OpIADD, 0xFFFFFFFF, 1, 0, 0}, // wraparound
		{isa.OpISUB, 3, 5, 0, 0xFFFFFFFE},
		{isa.OpIMUL, 7, 6, 0, 42},
		{isa.OpIMUL, 0x10000, 0x10000, 0, 0}, // low 32 bits
		{isa.OpIMAD, 3, 4, 5, 17},
		{isa.OpIMIN, uint32(0xFFFFFFFF), 1, 0, 0xFFFFFFFF}, // -1 < 1 signed
		{isa.OpIMAX, uint32(0xFFFFFFFF), 1, 0, 1},
		{isa.OpAND, 0b1100, 0b1010, 0, 0b1000},
		{isa.OpOR, 0b1100, 0b1010, 0, 0b1110},
		{isa.OpXOR, 0b1100, 0b1010, 0, 0b0110},
		{isa.OpNOT, 0, 0, 0, 0xFFFFFFFF},
		{isa.OpSHL, 1, 4, 0, 16},
		{isa.OpSHL, 1, 36, 0, 16}, // shift masked to 5 bits
		{isa.OpSHR, 0x80000000, 31, 0, 1},
		{isa.OpSAR, 0x80000000, 31, 0, 0xFFFFFFFF},
		{isa.OpSELP, 11, 22, 1, 11},
		{isa.OpSELP, 11, 22, 0, 22},
	}
	for _, c := range cases {
		got, ok := compute(instr(c.op), c.a, c.b, c.c)
		if !ok {
			t.Errorf("%v not computable", c.op)
			continue
		}
		if got != c.want {
			t.Errorf("%v(%#x,%#x,%#x) = %#x, want %#x", c.op, c.a, c.b, c.c, got, c.want)
		}
	}
}

func TestComputeFloatOps(t *testing.T) {
	cases := []struct {
		op      isa.Opcode
		a, b, c float32
		want    float32
	}{
		{isa.OpFADD, 1.5, 2.25, 0, 3.75},
		{isa.OpFSUB, 1, 0.5, 0, 0.5},
		{isa.OpFMUL, 3, -2, 0, -6},
		{isa.OpFFMA, 2, 3, 4, 10},
		{isa.OpFMIN, -1, 1, 0, -1},
		{isa.OpFMAX, -1, 1, 0, 1},
		{isa.OpFNEG, 2.5, 0, 0, -2.5},
		{isa.OpFABS, -2.5, 0, 0, 2.5},
		{isa.OpFDIV, 1, 4, 0, 0.25},
	}
	for _, c := range cases {
		got, ok := compute(instr(c.op), fb(c.a), fb(c.b), fb(c.c))
		if !ok || ff(got) != c.want {
			t.Errorf("%v(%v,%v,%v) = %v, want %v", c.op, c.a, c.b, c.c, ff(got), c.want)
		}
	}
}

func TestComputeSFU(t *testing.T) {
	approx := func(op isa.Opcode, x, want float32) {
		got, ok := compute(instr(op), fb(x), 0, 0)
		if !ok {
			t.Fatalf("%v not computable", op)
		}
		if math.Abs(float64(ff(got)-want)) > 1e-5 {
			t.Errorf("%v(%v) = %v, want ~%v", op, x, ff(got), want)
		}
	}
	approx(isa.OpFSIN, 0, 0)
	approx(isa.OpFCOS, 0, 1)
	approx(isa.OpFSQRT, 9, 3)
	approx(isa.OpFRSQRT, 4, 0.5)
	approx(isa.OpFRCP, 8, 0.125)
	approx(isa.OpFEX2, 3, 8)
	approx(isa.OpFLG2, 8, 3)
}

func TestComputeConversions(t *testing.T) {
	if got, _ := compute(instr(isa.OpI2F), negU32(3), 0, 0); ff(got) != -3 {
		t.Error("i2f(-3) wrong")
	}
	if got, _ := compute(instr(isa.OpF2I), fb(-3.7), 0, 0); int32(got) != -3 {
		t.Error("f2i truncation wrong")
	}
	if got, _ := compute(instr(isa.OpF2I), fb(float32(math.NaN())), 0, 0); got != 0 {
		t.Error("f2i(NaN) should be 0")
	}
	if got, _ := compute(instr(isa.OpF2I), fb(1e20), 0, 0); int32(got) != math.MaxInt32 {
		t.Error("f2i overflow should clamp high")
	}
	if got, _ := compute(instr(isa.OpF2I), fb(-1e20), 0, 0); int32(got) != math.MinInt32 {
		t.Error("f2i overflow should clamp low")
	}
}

func TestComputeSetp(t *testing.T) {
	mk := func(cmp isa.CmpOp, ty isa.CmpType) *isa.Instr {
		return &isa.Instr{Op: isa.OpSETP, Cmp: cmp, CmpTy: ty, Pred: isa.AlwaysPred()}
	}
	if v, _ := compute(mk(isa.CmpLT, isa.CmpS32), negU32(5), 3, 0); v != 1 {
		t.Error("-5 < 3 signed failed")
	}
	if v, _ := compute(mk(isa.CmpLT, isa.CmpU32), negU32(5), 3, 0); v != 0 {
		t.Error("0xFFFFFFFB < 3 unsigned should be false")
	}
	if v, _ := compute(mk(isa.CmpGE, isa.CmpF32), fb(2.5), fb(2.5), 0); v != 1 {
		t.Error("2.5 >= 2.5 failed")
	}
	nan := fb(float32(math.NaN()))
	if v, _ := compute(mk(isa.CmpEQ, isa.CmpF32), nan, nan, 0); v != 0 {
		t.Error("NaN == NaN must be false")
	}
	if v, _ := compute(mk(isa.CmpNE, isa.CmpF32), nan, nan, 0); v != 1 {
		t.Error("NaN != NaN must be true")
	}
}

func TestComputeMemAddress(t *testing.T) {
	in := &isa.Instr{Op: isa.OpLD, Off: 16, Pred: isa.AlwaysPred()}
	if got, _ := compute(in, 100, 0, 0); got != 116 {
		t.Errorf("address = %d, want 116", got)
	}
	in2 := &isa.Instr{Op: isa.OpST, Off: -4, Pred: isa.AlwaysPred()}
	if got, _ := compute(in2, 100, 0, 0); got != 96 {
		t.Errorf("address = %d, want 96", got)
	}
}

func TestComputeNonComputable(t *testing.T) {
	for _, op := range []isa.Opcode{isa.OpBRA, isa.OpBAR, isa.OpEXIT, isa.OpNOP, isa.OpPAND, isa.OpPNOT} {
		if _, ok := compute(instr(op), 0, 0, 0); ok {
			t.Errorf("%v should not be lane-computable", op)
		}
	}
}

// Property: a lane's compute function is pure — same inputs, same outputs —
// which is what makes DMR re-execution meaningful.
func TestComputeDeterministicQuick(t *testing.T) {
	ops := []isa.Opcode{
		isa.OpIADD, isa.OpIMUL, isa.OpIMAD, isa.OpXOR, isa.OpSHL,
		isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpFSQRT, isa.OpFRCP,
	}
	f := func(opIdx uint8, a, b, c uint32) bool {
		in := instr(ops[int(opIdx)%len(ops)])
		v1, ok1 := compute(in, a, b, c)
		v2, ok2 := compute(in, a, b, c)
		return ok1 == ok2 && v1 == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: integer add commutes and xor is an involution.
func TestComputeAlgebraQuick(t *testing.T) {
	add := instr(isa.OpIADD)
	xor := instr(isa.OpXOR)
	f := func(a, b uint32) bool {
		ab, _ := compute(add, a, b, 0)
		ba, _ := compute(add, b, a, 0)
		x1, _ := compute(xor, a, b, 0)
		x2, _ := compute(xor, x1, b, 0)
		return ab == ba && x2 == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- Machine-level tests ---

// newTestMachine compiles src and builds a Machine plus a ready warp
// state over the given memories.
func newTestMachine(t *testing.T, src *isa.Program, width int, mm Mem, perturb Perturb) (*Machine, *WarpState) {
	t.Helper()
	c, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(c, Opts{Banks: 32, Perturb: perturb})
	r := NewRegs(src.NumRegs)
	var lane [32]uint32
	for i := 0; i < 32; i++ {
		lane[i] = uint32(i)
	}
	r.SetSpecial(isa.RegTIDX, lane)
	r.SetSpecial(isa.RegLANEID, lane)
	ws := &WarpState{Ctl: simt.NewWarp(0, 0, width), Regs: r, Mem: mm}
	return m, ws
}

func stepProgram(t *testing.T, src *isa.Program, width int, mm Mem, perturb Perturb) (*simt.Warp, *Regs, []*Record) {
	t.Helper()
	m, ws := newTestMachine(t, src, width, mm, perturb)
	var recs []*Record
	for steps := 0; !ws.Ctl.Done(); steps++ {
		if steps > 10000 {
			t.Fatal("program did not terminate")
		}
		rec, err := m.Step(ws)
		if err != nil {
			t.Fatal(err)
		}
		cp := *rec // Machine reuses its Record; keep a value copy
		recs = append(recs, &cp)
	}
	return ws.Ctl, ws.Regs, recs
}

func newCtx() Mem {
	return Mem{
		Global: mem.NewGlobal(1 << 16),
		Shared: mem.NewShared(1 << 12),
		Params: mem.NewParams(1, 2, 3),
	}
}

func mustProg(t *testing.T, instrs ...isa.Instr) *isa.Program {
	t.Helper()
	for i := range instrs {
		if instrs[i].Pred == (isa.PredRef{}) {
			instrs[i].Pred = isa.AlwaysPred()
		}
	}
	return &isa.Program{Name: "t", Instrs: instrs, NumRegs: 16}
}

func TestStepWritesPerLane(t *testing.T) {
	// r1 = tid + 100 in every lane.
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpIADD, Dst: 1, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(100)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, _ := stepProgram(t, p, 32, newCtx(), nil)
	for lane := 0; lane < 32; lane++ {
		if r.Read(1, lane) != uint32(lane+100) {
			t.Fatalf("lane %d r1 = %d", lane, r.Read(1, lane))
		}
	}
}

func TestStepGuardMasksWrites(t *testing.T) {
	// p0 = tid < 8; @p0 r1 = 1 (others keep 0).
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 1,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(8)}},
		isa.Instr{Op: isa.OpMOV, Dst: 1, Src: [3]isa.Operand{isa.ImmOp(1)},
			Pred: isa.PredRef{Index: 1}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, recs := stepProgram(t, p, 32, newCtx(), nil)
	for lane := 0; lane < 32; lane++ {
		want := uint32(0)
		if lane < 8 {
			want = 1
		}
		if r.Read(1, lane) != want {
			t.Fatalf("lane %d r1 = %d, want %d", lane, r.Read(1, lane), want)
		}
	}
	if recs[2].Executing.Count() != 8 {
		t.Errorf("guarded mov executed %d lanes, want 8", recs[2].Executing.Count())
	}
	if recs[2].Active.Count() != 32 {
		t.Errorf("guarded mov active %d lanes, want 32", recs[2].Active.Count())
	}
}

func TestStepMemoryRoundTrip(t *testing.T) {
	ctx := newCtx()
	base := ctx.Global.MustAlloc(4 * 32)
	// st.global [base + 4*tid] = tid; r2 = ld.global [base + 4*tid].
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpSHL, Dst: 1, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(2)}},
		isa.Instr{Op: isa.OpIADD, Dst: 1, Src: [3]isa.Operand{isa.RegOp(1), isa.ImmOp(base)}},
		isa.Instr{Op: isa.OpST, Space: isa.SpaceGlobal, Src: [3]isa.Operand{isa.RegOp(1), isa.RegOp(0)}},
		isa.Instr{Op: isa.OpLD, Space: isa.SpaceGlobal, Dst: 2, Src: [3]isa.Operand{isa.RegOp(1)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, recs := stepProgram(t, p, 32, ctx, nil)
	for lane := 0; lane < 32; lane++ {
		if r.Read(2, lane) != uint32(lane) {
			t.Fatalf("lane %d loaded %d", lane, r.Read(2, lane))
		}
	}
	// A memory record's Vals hold each lane's effective address.
	st := recs[3]
	for lane := 0; lane < 32; lane++ {
		if want := base + 4*uint32(lane); st.Vals[lane] != want {
			t.Fatalf("store lane %d address %#x, want %#x", lane, st.Vals[lane], want)
		}
	}
}

func TestStepSharedAndAtomic(t *testing.T) {
	ctx := newCtx()
	// Every lane atomically adds 1 to shared word 0.
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.ImmOp(0)}},
		isa.Instr{Op: isa.OpATOM, Space: isa.SpaceShared, Dst: 1,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(1)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, _ := stepProgram(t, p, 32, ctx, nil)
	v, _ := ctx.Shared.Load32(0)
	if v != 32 {
		t.Errorf("shared counter = %d, want 32", v)
	}
	// Old values must form a permutation of 0..31.
	seen := make(map[uint32]bool)
	for lane := 0; lane < 32; lane++ {
		seen[r.Read(1, lane)] = true
	}
	if len(seen) != 32 {
		t.Errorf("atomic old values not unique: %d distinct", len(seen))
	}
}

func TestStepParamLoad(t *testing.T) {
	ctx := newCtx() // params 1,2,3
	p := mustProg(t,
		isa.Instr{Op: isa.OpLD, Space: isa.SpaceParam, Dst: 0, Src: [3]isa.Operand{isa.ImmOp(0)}, Off: 4},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, _ := stepProgram(t, p, 32, ctx, nil)
	if r.Read(0, 0) != 2 {
		t.Errorf("param[4] = %d, want 2", r.Read(0, 0))
	}
}

func TestStepShadowSuppressesGlobalWrites(t *testing.T) {
	ctx := newCtx()
	ctx.Shadow = true
	base := ctx.Global.MustAlloc(4 * 32)
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.ImmOp(base)}},
		isa.Instr{Op: isa.OpST, Space: isa.SpaceGlobal, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(0xAB)}},
		isa.Instr{Op: isa.OpATOM, Space: isa.SpaceGlobal, Dst: 1, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(5)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, _, _ = stepProgram(t, p, 1, ctx, nil)
	v, _ := ctx.Global.Load32(base)
	if v != 0 {
		t.Errorf("shadow block wrote global memory: %d", v)
	}
	// Shared writes stay allowed in shadow mode.
	ctx2 := newCtx()
	ctx2.Shadow = true
	p2 := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.ImmOp(0)}},
		isa.Instr{Op: isa.OpST, Space: isa.SpaceShared, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(0xCD)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, _, _ = stepProgram(t, p2, 1, ctx2, nil)
	v2, _ := ctx2.Shared.Load32(0)
	if v2 != 0xCD {
		t.Error("shadow block should still write its own shared memory")
	}
}

func TestStepPerturbHook(t *testing.T) {
	flips := 0
	perturb := func(thread int, unit isa.UnitClass, golden uint32) uint32 {
		if unit == isa.UnitSP && thread == 3 {
			flips++
			return golden ^ 1
		}
		return golden
	}
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, _ := stepProgram(t, p, 32, newCtx(), perturb)
	if flips == 0 {
		t.Fatal("perturb hook never fired")
	}
	if r.Read(0, 3) != 3^1 {
		t.Errorf("lane 3 value %d, want corrupted %d", r.Read(0, 3), 3^1)
	}
	if r.Read(0, 4) != 4 {
		t.Error("uninjected lane corrupted")
	}
}

func TestStepMemFaultSurfaces(t *testing.T) {
	ctx := newCtx()
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.ImmOp(1 << 30)}},
		isa.Instr{Op: isa.OpLD, Space: isa.SpaceGlobal, Dst: 1, Src: [3]isa.Operand{isa.RegOp(0)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	m, ws := newTestMachine(t, p, 1, ctx, nil)
	if _, err := m.Step(ws); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(ws); err == nil {
		t.Error("out-of-range load must surface an error")
	}
}

func TestStepBranchRecords(t *testing.T) {
	// Divergent branch on tid < 16.
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 1,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(16)}},
		isa.Instr{Op: isa.OpBRA, Pred: isa.PredRef{Index: 1}, Target: 4, Reconv: 4},
		isa.Instr{Op: isa.OpIADD, Dst: 1, Src: [3]isa.Operand{isa.RegOp(1), isa.ImmOp(1)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, recs := stepProgram(t, p, 32, newCtx(), nil)
	br := recs[2]
	if br.Dec.Op != isa.OpBRA || !br.Divergent {
		t.Errorf("branch record wrong: %+v", br)
	}
	for lane := 0; lane < 32; lane++ {
		want := uint32(0)
		if lane >= 16 {
			want = 1 // fall-through lanes ran the iadd
		}
		if r.Read(1, lane) != want {
			t.Fatalf("lane %d r1 = %d, want %d", lane, r.Read(1, lane), want)
		}
	}
}

func TestStepPredicateOps(t *testing.T) {
	// p1 = tid < 8; p2 = tid < 24; p3 = p1 && p2; p4 = !p1;
	// r1 = selp(10, 20, p3).
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 1,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(8)}},
		isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 2,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(24)}},
		isa.Instr{Op: isa.OpPAND, PDst: 3, PSrcA: 1, PSrcB: 2},
		isa.Instr{Op: isa.OpPNOT, PDst: 4, PSrcA: 1},
		isa.Instr{Op: isa.OpSELP, Dst: 1, Src: [3]isa.Operand{isa.ImmOp(10), isa.ImmOp(20)}, PSrcA: 3},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, _ := stepProgram(t, p, 32, newCtx(), nil)
	for lane := 0; lane < 32; lane++ {
		want := uint32(20)
		if lane < 8 {
			want = 10
		}
		if r.Read(1, lane) != want {
			t.Fatalf("lane %d selp = %d, want %d", lane, r.Read(1, lane), want)
		}
		if r.Pred[4].Has(lane) == (lane < 8) {
			t.Fatalf("lane %d pnot wrong", lane)
		}
	}
}

func TestStepBarrierRecord(t *testing.T) {
	p := mustProg(t,
		isa.Instr{Op: isa.OpBAR},
		isa.Instr{Op: isa.OpEXIT},
	)
	m, ws := newTestMachine(t, p, 32, newCtx(), nil)
	rec, err := m.Step(ws)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dec.Op != isa.OpBAR || !ws.Ctl.AtBarrier {
		t.Error("barrier record/state wrong")
	}
	if rec.Dec.Unit != isa.UnitCTRL {
		t.Error("barrier must be CTRL class")
	}
}

func TestStepGuardedExitRecord(t *testing.T) {
	// Half the lanes exit; the rest keep the warp alive.
	p := mustProg(t,
		isa.Instr{Op: isa.OpMOV, Dst: 0, Src: [3]isa.Operand{isa.RegOp(isa.RegTIDX)}},
		isa.Instr{Op: isa.OpSETP, Cmp: isa.CmpLT, CmpTy: isa.CmpS32, PDst: 1,
			Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(16)}},
		isa.Instr{Op: isa.OpEXIT, Pred: isa.PredRef{Index: 1}},
		isa.Instr{Op: isa.OpIADD, Dst: 1, Src: [3]isa.Operand{isa.RegOp(0), isa.ImmOp(1)}},
		isa.Instr{Op: isa.OpEXIT},
	)
	_, r, recs := stepProgram(t, p, 32, newCtx(), nil)
	var exitRec *Record
	for _, rec := range recs {
		if rec.Dec.Op == isa.OpEXIT && rec.Executing.Count() == 16 {
			exitRec = rec
		}
	}
	if exitRec == nil {
		t.Fatal("guarded exit record missing")
	}
	for lane := 16; lane < 32; lane++ {
		if r.Read(1, lane) != uint32(lane+1) {
			t.Fatalf("surviving lane %d did not run the tail", lane)
		}
	}
}

func TestStepBadPC(t *testing.T) {
	p := mustProg(t, isa.Instr{Op: isa.OpNOP}, isa.Instr{Op: isa.OpEXIT})
	m, ws := newTestMachine(t, p, 32, newCtx(), nil)
	ws.Ctl.Jump(99)
	if _, err := m.Step(ws); err == nil {
		t.Error("out-of-range PC must error")
	}
}
