// Package verify is a static kernel verifier: a lint pass over
// assembled *isa.Program values that builds a basic-block control-flow
// graph and runs forward dataflow analyses to catch the defect classes
// that silently corrupt a Warped-DMR run before it starts. A malformed
// reconvergence stack or an uninitialized register corrupts the primary
// execution and its DMR replay identically, so the comparator sees
// agreement and the error escapes — exactly the failure mode static
// verification exists to close (in the spirit of GPUVerify/GPURepair
// for barrier divergence and data races).
//
// Rules:
//
//	use-before-def     a GPR or predicate may be read on some path
//	                   before any instruction writes it (rule a)
//	reg-bounds         register/predicate indices outside the kernel's
//	                   .reg declaration or the architectural file (rule b)
//	unreachable        instructions no path from the entry reaches (rule c)
//	fall-through       control can run off the end of the program
//	                   without an exit (rule c)
//	reconvergence      a branch reconvergence PC that the taken path
//	                   and/or the fall-through path can never reach, so
//	                   divergent lanes never merge (rule d)
//	divergence-depth   statically nested divergent branches exceeding
//	                   the SIMT reconvergence stack bound (rule d)
//	divergent-barrier  a bar.sync reachable under divergent control
//	                   flow or guarded by a thread-varying predicate,
//	                   the classic GPU barrier-divergence hang (rule e)
//	misalignment       sized (32-bit) loads/stores whose address is
//	                   provably not 4-byte aligned (rule f)
//	shared-bounds      shared-space accesses whose address provably
//	                   overruns the declared .shared size — for every
//	                   thread, or for a concrete witness thread when
//	                   the launch geometry is declared (rule g;
//	                   skipped when no .shared is declared)
//	shared-race        two shared-space accesses in the same barrier
//	                   interval, at least one a write, that distinct
//	                   threads of different warps can issue to
//	                   overlapping bytes with no intervening bar.sync
//	                   (rule h; needs declared launch geometry)
//
// Deliberate rule refinements, tuned against the bundled kernels
// (internal/kernels), which all verify clean:
//
//   - A guarded write (`@p0 mov r1, ...`) counts as a definition for
//     use-before-def. Predicates are not tracked symbolically, so the
//     ubiquitous predicated-slot idiom (`@p0 ld.global r13, ...` then
//     `@p0 st.shared ..., r13`) must not be flagged; the analysis
//     reports only registers for which some path carries NO write at
//     all, guarded or not.
//   - Barrier divergence uses a uniformity dataflow, not raw guard
//     syntax. Loop back-edges guarded on block-uniform values (counters
//     stepped uniformly, `ld.param` values, %ctaid/%ntid specials) do
//     not make a contained bar.sync divergent — every bundled shared-
//     memory kernel (scan, bitonic, fft, matmul, reduce) keeps its
//     barrier inside such a uniform loop, matching the PTX rule that
//     barriers must be reached by all threads of the block. Values from
//     %tid/%laneid/%warpid, data-dependent loads, and atomics are
//     divergent; everything else propagates.
//   - Reconvergence checking is reachability-based: the reconvergence
//     PC must be reachable from the taken target and from the
//     fall-through. One-sided reachability is a warning (legal when
//     every path on the silent side exits, which reachability alone
//     cannot prove); unreachable from both sides is an error, because
//     the merged continuation frame would resume at a PC the program's
//     own control flow never feeds.
//   - The assembler appends a terminating `exit` (source line 0) when a
//     program does not end in one; if that synthetic instruction is
//     unreachable (e.g. the program ends in an unconditional loop) it
//     is not reported.
//   - Alignment is checked where it is provable: absolute addresses
//     (immediate base) must be 4-byte aligned and non-negative. For
//     register bases the affine-in-tid value analysis (affine.go) is
//     consulted first: when the address is exact and its thread-varying
//     part is a multiple of 4 for every thread, the residue mod 4 is a
//     proof either way — a non-zero residue is an error and a zero
//     residue suppresses the fallback heuristic. Otherwise the PR 4
//     heuristic applies: register-relative offsets must be multiples of
//     4 (kernel address arithmetic keeps base registers word-aligned).
//   - The tid-aware rules (g) and (h) are deliberately under-
//     approximate: they report only what the affine domain can PROVE
//     for a concrete thread, skipping ⊤/inexact addresses, accesses
//     whose guards have no evaluable predicate fact, and accesses
//     inside guarded-branch regions or downstream of guarded exits
//     (which threads execute those is path-sensitive). No bundled
//     kernel trips them; the racy fixtures in race_test.go all do.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"warped/internal/isa"
)

// Severity ranks a finding.
type Severity uint8

const (
	// SevWarning marks a suspicious construct that may still execute.
	SevWarning Severity = iota
	// SevError marks a defect that corrupts or hangs execution.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Rule identifiers, stable for grepping lint output.
const (
	RuleUseBeforeDef     = "use-before-def"
	RuleRegBounds        = "reg-bounds"
	RuleUnreachable      = "unreachable"
	RuleFallThrough      = "fall-through"
	RuleReconvergence    = "reconvergence"
	RuleDivergenceDepth  = "divergence-depth"
	RuleDivergentBarrier = "divergent-barrier"
	RuleMisalignment     = "misalignment"
	RuleSharedBounds     = "shared-bounds"
	RuleSharedRace       = "shared-race"
	RuleStructure        = "structure"
)

// Finding is one verifier diagnostic, positioned at a source line.
type Finding struct {
	PC   int // instruction index within the program
	Line int // source line (0 for synthesized instructions)
	Sev  Severity
	Rule string
	Msg  string
}

// String renders the finding like an asm.Error, with the rule tag.
func (f Finding) String() string {
	return fmt.Sprintf("line %d: %s: %s: %s", f.Line, f.Sev, f.Rule, f.Msg)
}

// Findings is a list of diagnostics ordered by source position.
type Findings []Finding

// String renders one finding per line.
func (fs Findings) String() string {
	lines := make([]string, len(fs))
	for i, f := range fs {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// Dump renders the stable greppable lint format, one finding per line:
// file:line: severity: rule: message.
func (fs Findings) Dump(file string) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&b, "%s:%d: %s: %s: %s\n", file, f.Line, f.Sev, f.Rule, f.Msg)
	}
	return b.String()
}

// Errors counts error-severity findings.
func (fs Findings) Errors() int {
	n := 0
	for _, f := range fs {
		if f.Sev == SevError {
			n++
		}
	}
	return n
}

// Err summarizes error-severity findings as a single error, or nil.
func (fs Findings) Err() error {
	if fs.Errors() == 0 {
		return nil
	}
	return fmt.Errorf("verify: %d error(s):\n%s", fs.Errors(), fs.String())
}

// Options tunes the verifier.
type Options struct {
	// MaxDivergenceDepth bounds statically nested divergent branches;
	// deeper nesting risks overflowing a hardware PDOM stack. 0 means
	// the default of 16.
	MaxDivergenceDepth int

	// BlockDimX/BlockDimY set the launch geometry the tid-aware rules
	// analyze against, overriding the program's own .block declaration.
	// 0 means use the declaration (and when the program declares none
	// either, the geometry-dependent refinements are disabled).
	BlockDimX int
	BlockDimY int

	// WarpSize is the SIMT width used to derive %laneid/%warpid ranges
	// and the intra-warp lockstep carve-out. 0 means the default of 32.
	WarpSize int
}

func (o Options) withDefaults() Options {
	if o.MaxDivergenceDepth <= 0 {
		o.MaxDivergenceDepth = 16
	}
	if o.WarpSize <= 0 {
		o.WarpSize = 32
	}
	if o.BlockDimX > 0 && o.BlockDimY <= 0 {
		o.BlockDimY = 1
	}
	return o
}

// Check verifies a program with default options.
func Check(p *isa.Program) Findings { return CheckWith(p, Options{}) }

// CheckWith verifies a program and returns all findings, ordered by
// source line then instruction index.
func CheckWith(p *isa.Program, opt Options) Findings {
	if p == nil || len(p.Instrs) == 0 {
		return Findings{{Sev: SevError, Rule: RuleStructure, Msg: "empty program"}}
	}
	return check(p, opt.withDefaults()).findings
}

// check runs every rule over a non-empty program and returns the
// checker, whose CFG, reachability and value states AnalyzeVulnWith
// goes on to use.
func check(p *isa.Program, opt Options) *checker {
	c := &checker{p: p, opt: opt}
	c.checkBounds()
	c.buildCFG()
	c.checkReachability()
	c.checkUseBeforeDef()
	c.computeUniformity()
	c.checkReconvergence()
	c.checkDivergence()
	c.runValueAnalysis()
	c.computeCondRegions()
	c.checkAlignment()
	c.checkSharedBounds()
	c.checkSharedRace()
	sort.SliceStable(c.findings, func(i, j int) bool {
		if c.findings[i].Line != c.findings[j].Line {
			return c.findings[i].Line < c.findings[j].Line
		}
		return c.findings[i].PC < c.findings[j].PC
	})
	return c
}

// checker carries the per-program analysis state.
type checker struct {
	p   *isa.Program
	opt Options

	succ      [][]int // CFG successor lists, built by buildCFG
	reachable []bool  // entry-reachable instructions

	divGPR  []uint64 // per-PC in-state: bit set = register possibly divergent
	divPred []uint8  // per-PC in-state: bit set = predicate possibly divergent
	ctrlDiv []bool   // instruction sits inside some divergent branch region

	geo  geom       // launch geometry for the affine domain
	vals []absState // per-PC affine in-states, from runValueAnalysis
	cond []bool     // instruction executes only under some branch/exit guard

	findings Findings
}

func (c *checker) addf(pc int, sev Severity, rule, format string, args ...any) {
	line := 0
	if pc >= 0 && pc < len(c.p.Instrs) {
		line = c.p.Instrs[pc].Line
	}
	c.findings = append(c.findings, Finding{
		PC: pc, Line: line, Sev: sev, Rule: rule, Msg: fmt.Sprintf(format, args...),
	})
}

// checkBounds implements rule (b): register and predicate indices must
// fit the declared register budget and the architectural limits.
func (c *checker) checkBounds() {
	p := c.p
	if p.NumRegs < 0 || p.NumRegs > isa.MaxGPR {
		c.addf(-1, SevError, RuleRegBounds, ".reg %d outside 0..%d", p.NumRegs, isa.MaxGPR)
	}
	checkGPR := func(pc int, r isa.Reg, role string) {
		if r.IsSpecial() {
			return
		}
		if int(r) >= isa.MaxGPR {
			c.addf(pc, SevError, RuleRegBounds, "%s register %s is not a valid GPR or special register", role, r)
			return
		}
		if p.NumRegs > 0 && int(r) >= p.NumRegs {
			c.addf(pc, SevError, RuleRegBounds, "%s register %s exceeds .reg %d", role, r, p.NumRegs)
		}
	}
	checkPred := func(pc int, idx uint8, role string) {
		if int(idx) >= isa.NumPreds {
			c.addf(pc, SevError, RuleRegBounds, "%s predicate p%d exceeds the %d predicate registers", role, idx, isa.NumPreds)
		}
	}
	for pc := range p.Instrs {
		in := &p.Instrs[pc]
		if in.Op.HasDst() {
			if in.Dst.IsSpecial() {
				c.addf(pc, SevError, RuleRegBounds, "destination %s is a read-only special register", in.Dst)
			} else {
				checkGPR(pc, in.Dst, "destination")
			}
		}
		for i := 0; i < in.Op.NumSrc(); i++ {
			if !in.Src[i].IsImm {
				checkGPR(pc, in.Src[i].Reg, "source")
			}
		}
		if !in.Pred.None {
			checkPred(pc, in.Pred.Index, "guard")
		}
		//simlint:ignore exhaustive-switch — only SETP/SELP/PAND/PNOT carry predicate operands beyond the guard (checked above); every other op has none to validate
		switch in.Op {
		case isa.OpSETP:
			checkPred(pc, in.PDst, "destination")
		case isa.OpSELP:
			checkPred(pc, in.PSrcA, "selector")
		case isa.OpPAND:
			checkPred(pc, in.PDst, "destination")
			checkPred(pc, in.PSrcA, "source")
			checkPred(pc, in.PSrcB, "source")
		case isa.OpPNOT:
			checkPred(pc, in.PDst, "destination")
			checkPred(pc, in.PSrcA, "source")
		}
	}
}

// checkAlignment implements rule (f): every memory access is 32-bit and
// must be 4-byte aligned.
func (c *checker) checkAlignment() {
	for pc := range c.p.Instrs {
		in := &c.p.Instrs[pc]
		if in.Op.Unit() != isa.UnitLDST {
			continue
		}
		if in.Src[0].IsImm {
			addr := int64(int32(in.Src[0].Imm)) + int64(in.Off)
			if addr < 0 {
				c.addf(pc, SevError, RuleMisalignment, "%s address %d is negative", in.Op, addr)
			} else if addr%4 != 0 {
				c.addf(pc, SevError, RuleMisalignment, "%s address %d is not 4-byte aligned", in.Op, addr)
			}
			continue
		}
		// The affine value analysis can settle alignment outright when
		// the address is exact and its thread-varying part is a
		// multiple of 4 for every thread: the residue mod 4 is then the
		// same constant for all of them.
		if c.vals[pc].reached {
			if av := c.accessAval(pc); av.exact() && wordStrided(av) {
				if res := ((av.lo % 4) + 4) % 4; res != 0 {
					c.addf(pc, SevError, RuleMisalignment,
						"%s address %s is provably %d bytes past a 4-byte boundary for every thread",
						in.Op, fmtAval(av, &c.geo), res)
				}
				continue // residue proven either way; skip the heuristic
			}
		}
		if in.Off%4 != 0 {
			c.addf(pc, SevError, RuleMisalignment,
				"%s offset %+d from %s is not a multiple of 4 (word-aligned base assumed)",
				in.Op, in.Off, in.Src[0].Reg)
		}
	}
}

// wordStrided reports whether every symbolic coefficient of v is a
// multiple of the 4-byte access width.
func wordStrided(v aval) bool {
	for _, co := range v.co {
		if co%4 != 0 {
			return false
		}
	}
	return true
}
