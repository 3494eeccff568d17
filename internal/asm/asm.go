// Package asm implements a two-pass assembler for the simulator's
// PTX-like textual assembly. Kernels in internal/kernels are written in
// this language; examples may also assemble their own.
//
// Syntax overview:
//
//	.kernel name          directive: kernel name
//	.reg N                directive: number of GPRs the kernel uses
//	.shared N             directive: shared-memory bytes per block
//	.block X [Y]          directive: worst-case launch block dims, used
//	                      by the thread-symbolic verifier rules
//	label:                labels, one per line or preceding an instruction
//	@p0 iadd r1, r2, 5    optional guard predicate, mnemonic, operands
//	@!p1 bra TOP          negated guard; branches take label operands
//	bra ELSE, RECONV      divergent branch with explicit reconvergence
//	ld.global r4,[r5+16]  memory operands are [reg+offset] or [offset]
//	setp.lt.s32 p0,r1,r2  compare with condition and type suffixes
//	mov r1, 1.5           float literals assemble to float32 bit patterns
//
// Comments start with ';', '#', or '//' and run to end of line.
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"warped/internal/isa"
	"warped/internal/verify"
)

// Error describes an assembly failure with source position. File is
// the caller-supplied source name from AssembleNamed ("" for the
// anonymous Assemble entry points, rendered as the historical "asm"
// prefix).
type Error struct {
	File string
	Line int
	Msg  string
}

func (e *Error) Error() string {
	name := e.File
	if name == "" {
		name = "asm"
	}
	return fmt.Sprintf("%s: line %d: %s", name, e.Line, e.Msg)
}

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Assemble parses and assembles one kernel from source text.
func Assemble(src string) (*isa.Program, error) {
	return AssembleNamed("", src)
}

// AssembleNamed is Assemble with a caller-supplied source name carried
// into every error message: the file the source was read from, or a
// synthetic origin such as "job:3f9c…" for inline source submitted over
// the network. An empty name keeps the anonymous "asm:" prefix.
func AssembleNamed(name, src string) (*isa.Program, error) {
	p, err := assemble(src)
	if err != nil {
		if ae, ok := err.(*Error); ok && name != "" {
			ae.File = name
		}
		return nil, err
	}
	return p, nil
}

// assemble parses and assembles one kernel from source text.
func assemble(src string) (*isa.Program, error) {
	p := &isa.Program{Labels: make(map[string]int)}

	type pending struct {
		instrIdx int
		target   string
		reconv   string // "" means default rule
		line     int
	}
	var fixups []pending

	maxReg := -1
	noteReg := func(r isa.Reg) {
		if !r.IsSpecial() && int(r) > maxReg {
			maxReg = int(r)
		}
	}
	noteOp := func(o isa.Operand) {
		if !o.IsImm {
			noteReg(o.Reg)
		}
	}

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := ln + 1
		text := stripComment(raw)
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}

		// Directives.
		if strings.HasPrefix(text, ".") {
			fields := strings.Fields(text)
			switch fields[0] {
			case ".kernel":
				if len(fields) != 2 {
					return nil, errf(line, ".kernel wants a name")
				}
				p.Name = fields[1]
			case ".reg":
				if len(fields) != 2 {
					return nil, errf(line, ".reg wants a count")
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 || n > isa.MaxGPR {
					return nil, errf(line, ".reg count must be 0..%d", isa.MaxGPR)
				}
				p.NumRegs = n
			case ".shared":
				if len(fields) != 2 {
					return nil, errf(line, ".shared wants a byte count")
				}
				n, err := strconv.Atoi(fields[1])
				if err != nil || n < 0 {
					return nil, errf(line, ".shared count must be non-negative")
				}
				p.SharedBytes = n
			case ".block":
				if len(fields) != 2 && len(fields) != 3 {
					return nil, errf(line, ".block wants X [Y] dimensions")
				}
				bx, err := strconv.Atoi(fields[1])
				if err != nil || bx < 1 {
					return nil, errf(line, ".block X must be a positive thread count")
				}
				by := 1
				if len(fields) == 3 {
					by, err = strconv.Atoi(fields[2])
					if err != nil || by < 1 {
						return nil, errf(line, ".block Y must be a positive thread count")
					}
				}
				p.BlockDimX, p.BlockDimY = bx, by
			default:
				return nil, errf(line, "unknown directive %q", fields[0])
			}
			continue
		}

		// Labels (possibly followed by an instruction on the same line).
		for {
			idx := strings.Index(text, ":")
			if idx < 0 {
				break
			}
			name := strings.TrimSpace(text[:idx])
			if !isIdent(name) {
				break // ':' belongs to something else (not in this ISA, but be safe)
			}
			if _, dup := p.Labels[name]; dup {
				return nil, errf(line, "duplicate label %q", name)
			}
			p.Labels[name] = len(p.Instrs)
			text = strings.TrimSpace(text[idx+1:])
			if text == "" {
				break
			}
		}
		if text == "" {
			continue
		}

		in, target, reconv, err := parseInstr(text, line)
		if err != nil {
			return nil, err
		}
		if target != "" {
			fixups = append(fixups, pending{len(p.Instrs), target, reconv, line})
		}
		if in.Op.HasDst() {
			noteReg(in.Dst)
		}
		for i := 0; i < in.Op.NumSrc(); i++ {
			noteOp(in.Src[i])
		}
		in.Line = line
		p.Instrs = append(p.Instrs, in)
	}

	if len(p.Instrs) == 0 {
		return nil, errf(0, "empty program")
	}
	if p.Name == "" {
		return nil, errf(0, "missing .kernel directive")
	}
	// Ensure termination so a warp can never run off the end.
	if p.Instrs[len(p.Instrs)-1].Op != isa.OpEXIT {
		p.Instrs = append(p.Instrs, isa.Instr{Op: isa.OpEXIT, Pred: isa.AlwaysPred()})
	}

	// Resolve branch labels and reconvergence PCs.
	for _, f := range fixups {
		pc, ok := p.Labels[f.target]
		if !ok {
			return nil, errf(f.line, "undefined label %q", f.target)
		}
		in := &p.Instrs[f.instrIdx]
		in.Target = pc
		switch {
		case f.reconv != "":
			rpc, ok := p.Labels[f.reconv]
			if !ok {
				return nil, errf(f.line, "undefined reconvergence label %q", f.reconv)
			}
			in.Reconv = rpc
		case pc > f.instrIdx:
			// Forward branch: if-then pattern, reconverge at the target.
			in.Reconv = pc
		default:
			// Backward branch: loop, reconverge at the fall-through.
			in.Reconv = f.instrIdx + 1
		}
	}

	if p.NumRegs == 0 {
		p.NumRegs = maxReg + 1
	} else if maxReg >= p.NumRegs {
		return nil, errf(0, "register r%d used but .reg declares only %d", maxReg, p.NumRegs)
	}
	return p, nil
}

// MustAssemble assembles src and panics on error. Intended for tests,
// whose sources are constants; the bundled kernels return their
// assembly errors instead.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

// VerifyError reports static-verification findings from
// AssembleVerified. The assembled program is still available to callers
// that want to run it anyway (the -lint=off escape hatch). File is the
// caller-supplied source name from AssembleVerifiedNamed ("" keeps the
// historical "asm" prefix).
type VerifyError struct {
	File     string
	Kernel   string
	Findings verify.Findings
}

func (e *VerifyError) Error() string {
	name := e.File
	if name == "" {
		name = "asm"
	}
	return fmt.Sprintf("%s: kernel %q failed verification:\n%s", name, e.Kernel, e.Findings)
}

// AssembleVerified assembles one kernel and runs the static verifier
// over the result. Error-severity findings (use-before-def, divergent
// barriers, misaligned accesses, ...) are returned as a *VerifyError
// alongside the program; warning-only programs assemble cleanly.
func AssembleVerified(src string) (*isa.Program, error) {
	return AssembleVerifiedNamed("", src)
}

// AssembleVerifiedNamed is AssembleVerified with a caller-supplied
// source name threaded into both assembly and verification errors.
func AssembleVerifiedNamed(name, src string) (*isa.Program, error) {
	p, err := AssembleNamed(name, src)
	if err != nil {
		return nil, err
	}
	if fs := verify.Check(p); fs.Errors() > 0 {
		return p, &VerifyError{File: name, Kernel: p.Name, Findings: fs}
	}
	return p, nil
}

func stripComment(s string) string {
	for _, marker := range []string{";", "//", "#"} {
		if i := strings.Index(s, marker); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseInstr decodes one instruction line (guard already attached).
// Returns the instruction plus unresolved branch target/reconv labels.
func parseInstr(text string, line int) (isa.Instr, string, string, error) {
	in := isa.Instr{Pred: isa.AlwaysPred(), Target: -1, Reconv: -1}

	// Guard predicate.
	if strings.HasPrefix(text, "@") {
		sp := strings.IndexAny(text, " \t")
		if sp < 0 {
			return in, "", "", errf(line, "guard with no instruction")
		}
		g := text[1:sp]
		neg := false
		if strings.HasPrefix(g, "!") {
			neg = true
			g = g[1:]
		}
		pi, err := parsePredName(g)
		if err != nil {
			return in, "", "", errf(line, "bad guard %q", text[:sp])
		}
		in.Pred = isa.PredRef{Index: pi, Negate: neg}
		text = strings.TrimSpace(text[sp:])
	}

	// Mnemonic and operand split.
	var mnem, rest string
	if sp := strings.IndexAny(text, " \t"); sp >= 0 {
		mnem, rest = text[:sp], strings.TrimSpace(text[sp:])
	} else {
		mnem = text
	}
	ops := splitOperands(rest)

	switch {
	case mnem == "bra":
		in.Op = isa.OpBRA
		if len(ops) < 1 || len(ops) > 2 {
			return in, "", "", errf(line, "bra wants 1 or 2 label operands")
		}
		target := ops[0]
		reconv := ""
		if len(ops) == 2 {
			reconv = ops[1]
		}
		if !isIdent(target) || (reconv != "" && !isIdent(reconv)) {
			return in, "", "", errf(line, "bra operands must be labels")
		}
		return in, target, reconv, nil

	case mnem == "bar.sync" || mnem == "bar":
		in.Op = isa.OpBAR
		return in, "", "", nil

	case mnem == "exit":
		in.Op = isa.OpEXIT
		return in, "", "", nil

	case mnem == "nop":
		in.Op = isa.OpNOP
		return in, "", "", nil

	case strings.HasPrefix(mnem, "setp."):
		// setp.<cmp>.<type> pN, a, b
		parts := strings.Split(mnem, ".")
		if len(parts) != 3 {
			return in, "", "", errf(line, "setp wants setp.<cmp>.<type>")
		}
		cmp, err := parseCmp(parts[1])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		ty, err := parseCmpType(parts[2])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		if len(ops) != 3 {
			return in, "", "", errf(line, "setp wants 3 operands")
		}
		pd, err := parsePredName(ops[0])
		if err != nil {
			return in, "", "", errf(line, "setp destination must be a predicate: %v", err)
		}
		a, err := parseOperand(ops[1], ty == isa.CmpF32)
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		b, err := parseOperand(ops[2], ty == isa.CmpF32)
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.Op, in.Cmp, in.CmpTy, in.PDst = isa.OpSETP, cmp, ty, pd
		in.Src[0], in.Src[1] = a, b
		return in, "", "", nil

	case mnem == "selp":
		// selp rd, a, b, pN
		if len(ops) != 4 {
			return in, "", "", errf(line, "selp wants 4 operands")
		}
		rd, err := parseGPR(ops[0])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		a, err := parseOperand(ops[1], false)
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		b, err := parseOperand(ops[2], false)
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		ps, err := parsePredName(ops[3])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.Op, in.Dst, in.PSrcA = isa.OpSELP, rd, ps
		in.Src[0], in.Src[1] = a, b
		return in, "", "", nil

	case mnem == "pand", mnem == "pnot":
		want := 3
		if mnem == "pnot" {
			want = 2
		}
		if len(ops) != want {
			return in, "", "", errf(line, "%s wants %d predicate operands", mnem, want)
		}
		pd, err := parsePredName(ops[0])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		pa, err := parsePredName(ops[1])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.PDst, in.PSrcA = pd, pa
		if mnem == "pand" {
			pb, err := parsePredName(ops[2])
			if err != nil {
				return in, "", "", errf(line, "%v", err)
			}
			in.Op, in.PSrcB = isa.OpPAND, pb
		} else {
			in.Op = isa.OpPNOT
		}
		return in, "", "", nil

	case strings.HasPrefix(mnem, "ld."), strings.HasPrefix(mnem, "st."), strings.HasPrefix(mnem, "atom.add."):
		return parseMemInstr(in, mnem, ops, line)
	}

	// Plain register ops.
	op, ok := mnemonics[mnem]
	if !ok {
		return in, "", "", errf(line, "unknown mnemonic %q", mnem)
	}
	in.Op = op
	need := op.NumSrc()
	idx := 0
	if op.HasDst() {
		if len(ops) != need+1 {
			return in, "", "", errf(line, "%s wants %d operands", mnem, need+1)
		}
		rd, err := parseGPR(ops[0])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.Dst = rd
		idx = 1
	} else if len(ops) != need {
		return in, "", "", errf(line, "%s wants %d operands", mnem, need)
	}
	for i := 0; i < need; i++ {
		o, err := parseOperand(ops[idx+i], op.IsFP())
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.Src[i] = o
	}
	return in, "", "", nil
}

func parseMemInstr(in isa.Instr, mnem string, ops []string, line int) (isa.Instr, string, string, error) {
	var op isa.Opcode
	var spaceStr string
	switch {
	case strings.HasPrefix(mnem, "ld."):
		op, spaceStr = isa.OpLD, mnem[3:]
	case strings.HasPrefix(mnem, "st."):
		op, spaceStr = isa.OpST, mnem[3:]
	case strings.HasPrefix(mnem, "atom.add."):
		op, spaceStr = isa.OpATOM, mnem[len("atom.add."):]
	}
	space, err := parseSpace(spaceStr)
	if err != nil {
		return in, "", "", errf(line, "%v", err)
	}
	if op == isa.OpATOM && space == isa.SpaceParam {
		return in, "", "", errf(line, "atomics not allowed in param space")
	}
	if op == isa.OpST && space == isa.SpaceParam {
		return in, "", "", errf(line, "param space is read-only")
	}
	in.Op, in.Space = op, space

	switch op {
	case isa.OpLD:
		if len(ops) != 2 {
			return in, "", "", errf(line, "ld wants dst, [addr]")
		}
		rd, err := parseGPR(ops[0])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		base, off, err := parseAddr(ops[1])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.Dst, in.Src[0], in.Off = rd, base, off
	case isa.OpST:
		if len(ops) != 2 {
			return in, "", "", errf(line, "st wants [addr], src")
		}
		base, off, err := parseAddr(ops[0])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		val, err := parseOperand(ops[1], false)
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.Src[0], in.Off, in.Src[1] = base, off, val
	case isa.OpATOM:
		if len(ops) != 3 {
			return in, "", "", errf(line, "atom.add wants dst, [addr], src")
		}
		rd, err := parseGPR(ops[0])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		base, off, err := parseAddr(ops[1])
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		val, err := parseOperand(ops[2], false)
		if err != nil {
			return in, "", "", errf(line, "%v", err)
		}
		in.Dst, in.Src[0], in.Off, in.Src[1] = rd, base, off, val
	default:
		return in, "", "", errf(line, "internal: %s is not a memory op", op)
	}
	return in, "", "", nil
}

var mnemonics = map[string]isa.Opcode{
	"mov": isa.OpMOV, "iadd": isa.OpIADD, "isub": isa.OpISUB,
	"imul": isa.OpIMUL, "imad": isa.OpIMAD, "imin": isa.OpIMIN,
	"imax": isa.OpIMAX, "and": isa.OpAND, "or": isa.OpOR, "xor": isa.OpXOR,
	"not": isa.OpNOT, "shl": isa.OpSHL, "shr": isa.OpSHR, "sar": isa.OpSAR,
	"fadd": isa.OpFADD, "fsub": isa.OpFSUB, "fmul": isa.OpFMUL,
	"ffma": isa.OpFFMA, "fmin": isa.OpFMIN, "fmax": isa.OpFMAX,
	"fneg": isa.OpFNEG, "fabs": isa.OpFABS, "i2f": isa.OpI2F, "f2i": isa.OpF2I,
	"fsin": isa.OpFSIN, "fcos": isa.OpFCOS, "fsqrt": isa.OpFSQRT,
	"frsqrt": isa.OpFRSQRT, "frcp": isa.OpFRCP, "fex2": isa.OpFEX2,
	"flg2": isa.OpFLG2, "fdiv": isa.OpFDIV,
}

func parseSpace(s string) (isa.MemSpace, error) {
	switch s {
	case "global":
		return isa.SpaceGlobal, nil
	case "shared":
		return isa.SpaceShared, nil
	case "param":
		return isa.SpaceParam, nil
	case "local":
		return isa.SpaceLocal, nil
	}
	return 0, fmt.Errorf("unknown memory space %q", s)
}

func parseCmp(s string) (isa.CmpOp, error) {
	switch s {
	case "eq":
		return isa.CmpEQ, nil
	case "ne":
		return isa.CmpNE, nil
	case "lt":
		return isa.CmpLT, nil
	case "le":
		return isa.CmpLE, nil
	case "gt":
		return isa.CmpGT, nil
	case "ge":
		return isa.CmpGE, nil
	}
	return 0, fmt.Errorf("unknown comparison %q", s)
}

func parseCmpType(s string) (isa.CmpType, error) {
	switch s {
	case "s32":
		return isa.CmpS32, nil
	case "u32":
		return isa.CmpU32, nil
	case "f32":
		return isa.CmpF32, nil
	}
	return 0, fmt.Errorf("unknown compare type %q", s)
}

func parsePredName(s string) (uint8, error) {
	if len(s) < 2 || s[0] != 'p' {
		return 0, fmt.Errorf("bad predicate %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumPreds {
		return 0, fmt.Errorf("predicate index out of range in %q", s)
	}
	return uint8(n), nil
}

func parseGPR(s string) (isa.Reg, error) {
	if r, ok := isa.SpecialByName(s); ok {
		return r, nil
	}
	if len(s) < 2 || s[0] != 'r' {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.MaxGPR {
		return 0, fmt.Errorf("register index out of range in %q", s)
	}
	return isa.Reg(n), nil
}

// parseOperand parses a register, special register, or immediate.
// fpCtx controls whether bare numeric literals are float32 or int32.
func parseOperand(s string, fpCtx bool) (isa.Operand, error) {
	if s == "" {
		return isa.Operand{}, fmt.Errorf("empty operand")
	}
	if r, ok := isa.SpecialByName(s); ok {
		return isa.RegOp(r), nil
	}
	if s[0] == 'r' {
		if r, err := parseGPR(s); err == nil {
			return isa.RegOp(r), nil
		}
	}
	return parseImm(s, fpCtx)
}

func parseImm(s string, fpCtx bool) (isa.Operand, error) {
	// Explicit float forms: trailing 'f' or a decimal point / exponent.
	isFloat := strings.HasSuffix(s, "f") && !strings.HasPrefix(s, "0x")
	if strings.ContainsAny(s, ".") || (strings.ContainsAny(s, "eE") && !strings.HasPrefix(s, "0x")) {
		isFloat = true
	}
	if isFloat || fpCtx {
		fs := strings.TrimSuffix(s, "f")
		if f, err := strconv.ParseFloat(fs, 32); err == nil {
			return isa.ImmOp(math.Float32bits(float32(f))), nil
		}
		if !isFloat {
			// fpCtx but maybe an int literal used as bit pattern: fall through.
		} else {
			return isa.Operand{}, fmt.Errorf("bad float literal %q", s)
		}
	}
	if n, err := strconv.ParseInt(s, 0, 64); err == nil {
		if n < math.MinInt32 || n > math.MaxUint32 {
			return isa.Operand{}, fmt.Errorf("immediate %q out of 32-bit range", s)
		}
		if fpCtx {
			// Integer literal in a float op: treat as float value for ergonomics.
			return isa.ImmOp(math.Float32bits(float32(n))), nil
		}
		return isa.ImmOp(uint32(int64(uint32(n)))), nil
	}
	return isa.Operand{}, fmt.Errorf("bad operand %q", s)
}

// parseAddr parses "[base+off]", "[base-off]", "[base]", or "[off]".
func parseAddr(s string) (isa.Operand, int32, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return isa.Operand{}, 0, fmt.Errorf("bad address %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return isa.Operand{}, 0, fmt.Errorf("empty address %q", s)
	}
	// Find +/- separating base and offset (not a leading sign).
	sep := -1
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			sep = i
			break
		}
	}
	if sep < 0 {
		// Single term: register base or absolute offset.
		if r, err := parseGPR(inner); err == nil {
			return isa.RegOp(r), 0, nil
		}
		if r, ok := isa.SpecialByName(inner); ok {
			return isa.RegOp(r), 0, nil
		}
		n, err := strconv.ParseInt(inner, 0, 32)
		if err != nil {
			return isa.Operand{}, 0, fmt.Errorf("bad address %q", s)
		}
		return isa.ImmOp(0), int32(n), nil
	}
	baseStr := strings.TrimSpace(inner[:sep])
	offStr := strings.TrimSpace(inner[sep:]) // includes sign
	base, err := parseGPR(baseStr)
	if err != nil {
		return isa.Operand{}, 0, fmt.Errorf("bad address base in %q", s)
	}
	n, err := strconv.ParseInt(offStr, 0, 32)
	if err != nil {
		return isa.Operand{}, 0, fmt.Errorf("bad address offset in %q", s)
	}
	return isa.RegOp(base), int32(n), nil
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	// Split on commas that are not inside brackets.
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// AssembleModule assembles a source file containing several kernels
// (each introduced by its own .kernel directive) and returns them by
// name. Directives and labels are scoped to their kernel; error line
// numbers refer to the whole module source.
func AssembleModule(src string) (map[string]*isa.Program, error) {
	lines := strings.Split(src, "\n")
	out := make(map[string]*isa.Program)

	var chunk []string
	chunkBase := 0 // 0-based line index of the chunk's first line
	flush := func() error {
		hasContent := false
		for _, raw := range chunk {
			if strings.TrimSpace(stripComment(raw)) != "" {
				hasContent = true
				break
			}
		}
		if !hasContent {
			return nil // blank/comment-only preamble
		}
		p, err := Assemble(strings.Join(chunk, "\n"))
		if err != nil {
			if ae, ok := err.(*Error); ok && ae.Line > 0 {
				ae.Line += chunkBase
			}
			return err
		}
		for i := range p.Instrs {
			if p.Instrs[i].Line > 0 { // keep 0 on synthesized exits
				p.Instrs[i].Line += chunkBase
			}
		}
		if _, dup := out[p.Name]; dup {
			return errf(chunkBase+1, "duplicate kernel %q", p.Name)
		}
		out[p.Name] = p
		return nil
	}
	for i, raw := range lines {
		text := strings.TrimSpace(stripComment(raw))
		if strings.HasPrefix(text, ".kernel") && len(chunk) > 0 {
			if err := flush(); err != nil {
				return nil, err
			}
			chunk = chunk[:0]
		}
		if len(chunk) == 0 {
			chunkBase = i
		}
		chunk = append(chunk, raw)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errf(0, "no kernels in module")
	}
	return out, nil
}
