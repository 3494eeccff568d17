package verify

import (
	"fmt"

	"warped/internal/isa"
)

// Thread-symbolic abstract interpretation: the value domain behind
// rules (f), (g) and (h). Each register's abstract value is affine in
// the per-thread special registers —
//
//	v = c0·%tid.x + c1·%tid.y + c2·%laneid + c3·%warpid + [lo,hi]
//
// — or ⊤. The constant-interval domain of PR 4 is the all-coefficients-
// zero fragment; %tid-derived addressing, which every bundled kernel
// uses, stays symbolic instead of collapsing to ⊤, so the verifier can
// evaluate an address exactly for a concrete thread id. Alongside the
// registers the analysis tracks one comparison fact per predicate
// (pN ⇔ cmp(a,b) with affine a,b), so the guards the kernels use to
// mask tid ranges (`setp.lt.s32 p0, %tid.x, 64`) are evaluable per
// thread too. Both feed the tid-aware bounds/alignment refinements and
// the shared-race witness search in race.go.

// Symbolic dimensions of the affine domain.
const (
	symTIDX = iota // %tid.x
	symTIDY        // %tid.y
	symLANE        // %laneid
	symWARP        // %warpid
	numSyms
)

// geom is the launch geometry the analysis is relative to: the
// program's .block declaration unless Options overrides it. When
// unknown, per-dimension caps bound the symbols (the architectural
// 1024-thread block limit) so norm stays sound, but every per-thread
// refinement is disabled — only the conservative PR 4 behavior runs.
type geom struct {
	known    bool
	bx, by   int64 // block dims (when known)
	warp     int64 // warp width
	symMax   [numSyms]int64
	nThreads int64 // bx*by (when known)
}

func (c *checker) resolveGeom() geom {
	g := geom{warp: int64(c.opt.WarpSize)}
	bx, by := int64(c.opt.BlockDimX), int64(c.opt.BlockDimY)
	if bx <= 0 {
		bx, by = int64(c.p.BlockDimX), int64(c.p.BlockDimY)
	}
	if by <= 0 {
		by = 1
	}
	const capDim = 1024 // architectural threads-per-block ceiling
	if bx > 0 {
		g.known = true
		g.bx, g.by = bx, by
		g.nThreads = bx * by
		g.symMax[symTIDX] = bx - 1
		g.symMax[symTIDY] = by - 1
		g.symMax[symWARP] = (g.nThreads + g.warp - 1) / g.warp
		if g.symMax[symWARP] > 0 {
			g.symMax[symWARP]--
		}
	} else {
		g.symMax[symTIDX] = capDim - 1
		g.symMax[symTIDY] = capDim - 1
		g.symMax[symWARP] = capDim/g.warp - 1
	}
	g.symMax[symLANE] = g.warp - 1
	if g.known && g.nThreads < g.warp {
		g.symMax[symLANE] = g.nThreads - 1
	}
	return g
}

// symVal evaluates symbol s for the flattened thread id t, matching the
// simulator's launch-time fill: linear t = warp·W + lane, %tid.x =
// t mod BlockX, %tid.y = t div BlockX.
func (g *geom) symVal(s int, t int64) int64 {
	switch s {
	case symTIDX:
		return t % g.bx
	case symTIDY:
		return t / g.bx
	case symLANE:
		return t % g.warp
	default:
		return t / g.warp
	}
}

// threadName renders thread t the way kernel authors think of it.
func (g *geom) threadName(t int64) string {
	if g.by > 1 {
		return fmt.Sprintf("thread (%d,%d)", t%g.bx, t/g.bx)
	}
	return fmt.Sprintf("thread %d", t)
}

// aval is one register's abstract value: Σ co[s]·sym[s] + [lo,hi], or ⊤.
type aval struct {
	co     [numSyms]int64
	lo, hi int64
	top    bool
}

func topAval() aval          { return aval{top: true} }
func constAval(v int64) aval { return aval{lo: v, hi: v} }

func symAval(s int) aval {
	var v aval
	v.co[s] = 1
	return v
}

// pureIval reports whether v has no symbolic part.
func (v aval) pureIval() bool {
	return !v.top && v.co == [numSyms]int64{}
}

func (v aval) isConst() bool { return v.pureIval() && v.lo == v.hi }

// exact reports whether v is a single concrete value per thread.
func (v aval) exact() bool { return !v.top && v.lo == v.hi }

// rng projects v onto a plain interval using the geometry's symbol
// ranges (coefficients may be negative, so each term contributes its
// own min/max corner).
func (v aval) rng(g *geom) (int64, int64) {
	lo, hi := v.lo, v.hi
	for s, co := range v.co {
		if co >= 0 {
			hi += co * g.symMax[s]
		} else {
			lo += co * g.symMax[s]
		}
	}
	return lo, hi
}

// eval computes v's value range for the concrete thread t. For exact
// values the two bounds coincide.
func (v aval) eval(g *geom, t int64) (int64, int64) {
	base := int64(0)
	for s, co := range v.co {
		base += co * g.symVal(s, t)
	}
	return base + v.lo, base + v.hi
}

// norm collapses any value whose projected range escapes uint32 to ⊤:
// the machine wraps mod 2³², and modeling wraparound buys nothing here.
func (v aval) norm(g *geom) aval {
	if v.top || v.lo > v.hi {
		return topAval()
	}
	lo, hi := v.rng(g)
	if lo < 0 || hi > maxUint32 {
		return topAval()
	}
	return v
}

// hullAval joins two abstract values: equal coefficient vectors keep
// the symbolic part and hull the intervals; anything else falls back to
// the interval hull of both projected ranges.
func hullAval(a, b aval, g *geom) aval {
	if a.top || b.top {
		return topAval()
	}
	if a.co == b.co {
		return aval{co: a.co, lo: min64(a.lo, b.lo), hi: max64(a.hi, b.hi)}
	}
	alo, ahi := a.rng(g)
	blo, bhi := b.rng(g)
	return aval{lo: min64(alo, blo), hi: max64(ahi, bhi)}
}

func addAval(a, b aval) aval {
	if a.top || b.top {
		return topAval()
	}
	v := aval{lo: a.lo + b.lo, hi: a.hi + b.hi}
	for s := range v.co {
		v.co[s] = a.co[s] + b.co[s]
	}
	return v
}

func subAval(a, b aval) aval {
	if a.top || b.top {
		return topAval()
	}
	v := aval{lo: a.lo - b.hi, hi: a.hi - b.lo}
	for s := range v.co {
		v.co[s] = a.co[s] - b.co[s]
	}
	return v
}

// scaleAval multiplies by a compile-time constant (shl by constant,
// imul with a constant side).
func scaleAval(a aval, k int64) aval {
	if a.top {
		return topAval()
	}
	v := aval{lo: min64(a.lo*k, a.hi*k), hi: max64(a.lo*k, a.hi*k)}
	for s := range v.co {
		v.co[s] = a.co[s] * k
	}
	return v
}

func mulAval(a, b aval, g *geom) aval {
	switch {
	case a.top || b.top:
		return topAval()
	case a.isConst():
		return scaleAval(b, a.lo)
	case b.isConst():
		return scaleAval(a, b.lo)
	case a.pureIval() && b.pureIval():
		// Corner products; post-norm bounds keep int64 exact.
		p1, p2, p3, p4 := a.lo*b.lo, a.lo*b.hi, a.hi*b.lo, a.hi*b.hi
		return aval{
			lo: min64(min64(p1, p2), min64(p3, p4)),
			hi: max64(max64(p1, p2), max64(p3, p4)),
		}
	default:
		return topAval()
	}
}

// shrAval is logical shift right by a constant. Affine values divide
// exactly when every coefficient is a multiple of 2^k (post-norm values
// are non-negative, so floor distributes over the sum); otherwise the
// projected range shifts as a plain interval.
func shrAval(a aval, k int64, g *geom) aval {
	if a.top || k < 0 || k >= 32 {
		return topAval()
	}
	allDiv := true
	for _, co := range a.co {
		if co%(int64(1)<<k) != 0 {
			allDiv = false
			break
		}
	}
	if allDiv {
		v := aval{lo: a.lo >> k, hi: a.hi >> k}
		for s := range v.co {
			v.co[s] = a.co[s] >> k
		}
		return v
	}
	lo, hi := a.rng(g)
	return aval{lo: lo >> k, hi: hi >> k}
}

// predFact is what the analysis knows about one predicate register: a
// comparison over affine values (from an unguarded setp), a boolean
// combination of such facts (pand/pnot), or nothing.
type predFact struct {
	known  bool
	op     isa.CmpOp
	signed bool // s32 compare (u32 otherwise); f32 facts are never kept
	a, b   aval // exact affine operands
	l, r   *predFact
	neg    bool // pnot: fact = !l
	and    bool // pand: fact = l && r
}

func factsEqual(a, b *predFact) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.known != b.known || a.neg != b.neg || a.and != b.and {
		return false
	}
	if !a.known {
		return true
	}
	if a.op != b.op || a.signed != b.signed || a.a != b.a || a.b != b.b {
		return false
	}
	return factsEqual(a.l, b.l) && factsEqual(a.r, b.r)
}

// evalFact decides the predicate for concrete thread t; ok is false
// when any leaf operand is not evaluable.
func (f *predFact) evalFact(g *geom, t int64) (val, ok bool) {
	if f == nil || !f.known {
		return false, false
	}
	switch {
	case f.neg:
		v, ok := f.l.evalFact(g, t)
		return !v, ok
	case f.and:
		lv, lok := f.l.evalFact(g, t)
		rv, rok := f.r.evalFact(g, t)
		return lv && rv, lok && rok
	}
	if !f.a.exact() || !f.b.exact() {
		return false, false
	}
	av, _ := f.a.eval(g, t)
	bv, _ := f.b.eval(g, t)
	var cmp int
	if f.signed {
		x, y := int32(uint32(av)), int32(uint32(bv))
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	} else {
		x, y := uint32(av), uint32(bv)
		switch {
		case x < y:
			cmp = -1
		case x > y:
			cmp = 1
		}
	}
	switch f.op {
	case isa.CmpEQ:
		return cmp == 0, true
	case isa.CmpNE:
		return cmp != 0, true
	case isa.CmpLT:
		return cmp < 0, true
	case isa.CmpLE:
		return cmp <= 0, true
	case isa.CmpGT:
		return cmp > 0, true
	case isa.CmpGE:
		return cmp >= 0, true
	}
	return false, false
}

// validPred reports whether a program-supplied predicate index is in
// range; out-of-range indices are rule (b) errors but must not crash
// the value analysis, which still runs on malformed programs.
func validPred(i uint8) bool { return int(i) < isa.NumPreds }

// guardHolds decides an instruction guard for thread t against the
// predicate facts at that PC. Unguarded instructions hold for every
// thread; a guard with no usable fact is not evaluable (ok = false).
func (c *checker) guardHolds(pc int, t int64) (val, ok bool) {
	in := &c.p.Instrs[pc]
	if in.Pred.None {
		return true, true
	}
	if !validPred(in.Pred.Index) {
		return false, false
	}
	f := c.vals[pc].preds[in.Pred.Index]
	v, ok := f.evalFact(&c.geo, t)
	if !ok {
		return false, false
	}
	if in.Pred.Negate {
		v = !v
	}
	return v, true
}

// absState is the per-PC abstract store. regs holds the registers the
// program names (valueRegs); a register past them is never read or
// written and stays ⊤.
type absState struct {
	regs    []aval
	preds   [isa.NumPreds]*predFact
	reached bool
}

// valueRegs is the number of GPRs the value analysis tracks: one past
// the highest GPR any instruction names in its destination or any
// source slot. It is taken from the instructions, not from .reg, which
// a malformed program can write past.
func valueRegs(p *isa.Program) int {
	n := 0
	note := func(r isa.Reg) {
		if !r.IsSpecial() && int(r) < isa.MaxGPR && int(r) >= n {
			n = int(r) + 1
		}
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		note(in.Dst)
		for _, o := range in.Src {
			if !o.IsImm {
				note(o.Reg)
			}
		}
	}
	return n
}

// operandAval evaluates a source operand under a state. %tid, %laneid
// and %warpid are the domain's symbols; %ntid is bounded by the
// declared geometry (a launch may be smaller, never larger, so an
// interval is sound where a constant would not be); the per-block
// specials (%ctaid, %nctaid) stay ⊤.
func (c *checker) operandAval(st *absState, o isa.Operand) aval {
	if o.IsImm {
		return constAval(int64(o.Imm))
	}
	r := o.Reg
	if r.IsSpecial() {
		switch r {
		case isa.RegTIDX:
			return symAval(symTIDX)
		case isa.RegTIDY:
			return symAval(symTIDY)
		case isa.RegLANEID:
			return symAval(symLANE)
		case isa.RegWARPID:
			return symAval(symWARP)
		case isa.RegNTIDX:
			if c.geo.known {
				return aval{lo: 1, hi: c.geo.bx}
			}
		case isa.RegNTIDY:
			if c.geo.known {
				return aval{lo: 1, hi: c.geo.by}
			}
		case isa.RegCTAIDX, isa.RegCTAIDY, isa.RegNCTAIDX, isa.RegNCTAIDY,
			isa.SpecialBase, isa.RegSpecialEnd:
			// Per-launch grid coordinates: not derivable from the block
			// geometry (and the range sentinels never reach here).
			return topAval()
		}
		return topAval()
	}
	if int(r) >= len(st.regs) {
		return topAval()
	}
	return st.regs[r]
}

// valueTransfer applies one instruction to the in-state st and writes
// the out-state into out, whose regs buffer has st's length.
func (c *checker) valueTransfer(in *isa.Instr, st, out *absState) {
	g := &c.geo
	copy(out.regs, st.regs)
	out.preds = st.preds
	out.reached = true

	// Predicate writers first: they have no GPR destination.
	//simlint:ignore exhaustive-switch — only SETP/PAND/PNOT define predicates; every other opcode leaves the facts untouched, which the fall-through below handles
	switch in.Op {
	case isa.OpSETP:
		if !validPred(in.PDst) {
			return
		}
		var f predFact
		a := c.operandAval(st, in.Src[0]).norm(g)
		b := c.operandAval(st, in.Src[1]).norm(g)
		// A guarded setp merges with the old value per lane, and f32
		// compares are outside the integer domain: both stay unknown.
		if in.Pred.None && in.CmpTy != isa.CmpF32 && a.exact() && b.exact() {
			f = predFact{known: true, op: in.Cmp, signed: in.CmpTy == isa.CmpS32, a: a, b: b}
		}
		out.preds[in.PDst] = &f
		return
	case isa.OpPAND:
		if !validPred(in.PDst) {
			return
		}
		var f predFact
		if in.Pred.None && validPred(in.PSrcA) && validPred(in.PSrcB) {
			l, r := st.preds[in.PSrcA], st.preds[in.PSrcB]
			if l != nil && l.known && r != nil && r.known {
				f = predFact{known: true, and: true, l: l, r: r}
			}
		}
		out.preds[in.PDst] = &f
		return
	case isa.OpPNOT:
		if !validPred(in.PDst) {
			return
		}
		var f predFact
		if in.Pred.None && validPred(in.PSrcA) {
			if l := st.preds[in.PSrcA]; l != nil && l.known {
				f = predFact{known: true, neg: true, l: l}
			}
		}
		out.preds[in.PDst] = &f
		return
	}

	dst, ok := in.Writes()
	if !ok || dst.IsSpecial() || int(dst) >= len(out.regs) {
		return
	}
	a := c.operandAval(st, in.Src[0])
	b := c.operandAval(st, in.Src[1])
	cc := c.operandAval(st, in.Src[2])

	var v aval
	//simlint:ignore exhaustive-switch — abstract interpretation: the integer ALU ops listed have precise transfer functions, and the default maps every other op to ⊤, which is sound for any opcode ever added
	switch in.Op {
	case isa.OpMOV:
		v = a
	case isa.OpIADD:
		v = addAval(a, b)
	case isa.OpISUB:
		v = subAval(a, b)
	case isa.OpIMUL:
		v = mulAval(a, b, g)
	case isa.OpIMAD:
		v = addAval(mulAval(a, b, g), cc)
	case isa.OpIMIN, isa.OpIMAX:
		v = minMaxAval(in.Op == isa.OpIMIN, a, b, g)
	case isa.OpSHL:
		if b.isConst() && b.lo < 32 {
			v = scaleAval(a, int64(1)<<b.lo)
		} else {
			v = topAval()
		}
	case isa.OpSHR:
		if b.isConst() {
			v = shrAval(a, b.lo, g)
		} else {
			v = topAval()
		}
	case isa.OpSAR:
		// Arithmetic shift matches the logical one while the sign bit
		// is provably clear.
		if b.isConst() && !a.top {
			if _, hi := a.rng(g); hi <= int64(1)<<31-1 {
				v = shrAval(a, b.lo, g)
				break
			}
		}
		v = topAval()
	case isa.OpAND:
		v = andAval(a, b)
	case isa.OpSELP:
		v = hullAval(a, b, g)
	default:
		// Loads, atomics, float ops, conversions: data-dependent.
		v = topAval()
	}
	v = v.norm(g)
	if !in.Pred.None {
		// Guarded write: the old value may survive on inactive lanes.
		v = hullAval(v, st.regs[dst], g).norm(g)
	}
	out.regs[dst] = v
}

func minMaxAval(isMin bool, a, b aval, g *geom) aval {
	if a.top || b.top {
		return topAval()
	}
	pick := max64
	if isMin {
		pick = min64
	}
	if a.co == b.co {
		// Pointwise min/max shares the symbolic part.
		return aval{co: a.co, lo: pick(a.lo, b.lo), hi: pick(a.hi, b.hi)}
	}
	alo, ahi := a.rng(g)
	blo, bhi := b.rng(g)
	return aval{lo: pick(alo, blo), hi: pick(ahi, bhi)}
}

func andAval(a, b aval) aval {
	mask, other := int64(-1), topAval()
	switch {
	case b.isConst():
		mask, other = b.lo, a
	case a.isConst():
		mask, other = a.lo, b
	}
	if mask < 0 {
		return topAval()
	}
	// x & m is exactly x mod (m+1) when m+1 is a power of two and every
	// symbolic coefficient is a multiple of it: the masked value is the
	// same constant for every thread.
	if m1 := mask + 1; m1&mask == 0 && other.exact() {
		all := true
		for _, co := range other.co {
			if co%m1 != 0 {
				all = false
				break
			}
		}
		if all && other.lo >= 0 {
			return constAval(other.lo & mask)
		}
	}
	// A constant mask bounds the result regardless of the other side.
	return aval{lo: 0, hi: mask}
}

// valueWidenVisits is how many times a PC's in-state may change before
// its changed registers are widened straight to ⊤ (and its changed
// predicate facts to unknown), guaranteeing the worklist terminates on
// counted loops (r = r + 4 style chains).
const valueWidenVisits = 24

// runValueAnalysis computes the affine fixpoint for every reachable PC
// into c.vals. It powers checkAlignment, checkSharedBounds and
// checkSharedRace; the transfer is monotone modulo widening, so the
// worklist terminates. Each PC owns its register slice: the transfer
// writes into one reused buffer, and a join updates the successor's
// state in place.
func (c *checker) runValueAnalysis() {
	c.geo = c.resolveGeom()
	n := len(c.p.Instrs)
	nregs := valueRegs(c.p)
	regs := make([]aval, (n+1)*nregs) // n in-states, then the transfer buffer
	c.vals = make([]absState, n)
	for pc := range c.vals {
		c.vals[pc].regs = regs[pc*nregs : (pc+1)*nregs : (pc+1)*nregs]
	}
	out := absState{regs: regs[n*nregs:]}
	for i := range c.vals[0].regs {
		c.vals[0].regs[i] = topAval()
	}
	c.vals[0].reached = true
	visits := make([]int, n)

	// A FIFO ring: a PC is queued at most once, so n slots suffice.
	work := make([]int, n)
	head, queued := 0, 1
	inWork := make([]bool, n)
	inWork[0] = true
	for queued > 0 {
		pc := work[head]
		head = (head + 1) % n
		queued--
		inWork[pc] = false

		c.valueTransfer(&c.p.Instrs[pc], &c.vals[pc], &out)
		for _, nx := range c.succ[pc] {
			st := &c.vals[nx]
			if !st.reached {
				copy(st.regs, out.regs)
				st.preds = out.preds
				st.reached = true
			} else if !c.joinInto(st, &out, visits[nx] >= valueWidenVisits) {
				continue
			}
			visits[nx]++
			if !inWork[nx] {
				inWork[nx] = true
				work[(head+queued)%n] = nx
				queued++
			}
		}
	}
}

// joinInto hulls the out-state into the reached in-state st, in place,
// and reports whether st changed. Under widen, a register that changes
// goes straight to ⊤, and a predicate fact that differs becomes unknown
// rather than adopting a first definition.
func (c *checker) joinInto(st, out *absState, widen bool) bool {
	changed := false
	for i, old := range st.regs {
		if old == out.regs[i] {
			continue // the hull of two equal normalized values is that value
		}
		v := hullAval(old, out.regs[i], &c.geo).norm(&c.geo)
		if v == old {
			continue
		}
		changed = true
		if widen {
			v = topAval()
		}
		st.regs[i] = v
	}
	for i, old := range st.preds {
		if factsEqual(old, out.preds[i]) {
			continue
		}
		changed = true
		switch {
		case !widen && out.preds[i] != nil && old == nil:
			st.preds[i] = out.preds[i] // first definition along a join: adopt it
		case old == nil || old.known:
			st.preds[i] = &predFact{} // an unknown fact stays as it is
		}
	}
	return changed
}

// accessAval returns the abstract byte address of the memory access at
// pc (base operand plus displacement).
func (c *checker) accessAval(pc int) aval {
	in := &c.p.Instrs[pc]
	st := &c.vals[pc]
	base := c.operandAval(st, in.Src[0])
	if base.top {
		return topAval()
	}
	return addAval(base, constAval(int64(in.Off)))
}
