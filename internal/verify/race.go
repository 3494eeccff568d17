package verify

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"warped/internal/isa"
)

// Static shared-memory race detection (rule h), in the spirit of
// GPUVerify's two-thread abstraction: a race among any number of
// threads is witnessed by some pair, so it suffices to reason about two
// distinct symbolic threads t₁ ≠ t₂ running the same kernel. Here the
// abstraction is made concrete: addresses are affine in the thread id
// (affine.go), the launch geometry is declared (.block), and the block
// is small, so the verifier evaluates each access's exact address and
// guard once per thread and searches those threads for a witness pair.
//
// The kernel is partitioned into BARRIER INTERVALS: the PCs reachable
// from the entry or from a bar.sync's successor without crossing
// another bar.sync. Within one interval there is no synchronization,
// so two accesses by different threads are unordered unless the SIMT
// execution model orders them — which it does exactly when both
// threads sit in the same warp (lockstep: every lane of a warp issues
// instruction k before any lane issues instruction k+1, and the
// simulator's warp-serial scheduler serializes same-pc lane conflicts
// deterministically). A race is therefore reported when, in some
// barrier interval, two accesses to overlapping 4-byte words — at
// least one a write, not both atomics (atom.shared serializes against
// itself) — have a witness pair of threads from DIFFERENT warps.
//
// Provable-only discipline, matching rules (f)/(g): accesses with ⊤ or
// loop-hulled (inexact) addresses, undecidable guards, or positions
// inside guarded-branch regions / past guarded exits are skipped, and
// an undeclared geometry disables the rule. Unguarded bar.syncs are
// trusted as block-wide delimiters; guarded or divergence-reachable
// ones are already errors under rule (e).

// maxRaceThreads caps the enumeration: blocks beyond the architectural
// 1024-thread limit (only expressible via Options) skip the rule.
const maxRaceThreads = 4096

// computeCondRegions marks the PCs whose execution is conditional on a
// guard: everything inside a guarded branch's divergent region (between
// the branch and its reconvergence point) and everything downstream of
// a guarded exit. Which threads reach those PCs is path-sensitive, so
// the per-thread rules treat them as unprovable. Requires buildCFG and
// checkReachability.
func (c *checker) computeCondRegions() {
	c.cond = make([]bool, len(c.p.Instrs))
	for pc := range c.p.Instrs {
		in := &c.p.Instrs[pc]
		if in.Pred.None || !c.reachable[pc] {
			continue
		}
		var region []bool
		//simlint:ignore exhaustive-switch — only guarded BRA and guarded EXIT make downstream execution thread-conditional; guards on other ops gate that op alone, which guardHolds evaluates directly
		switch in.Op {
		case isa.OpBRA:
			region = c.divergentRegion(pc)
		case isa.OpEXIT:
			region = c.reachFrom([]int{pc + 1}, -1)
		default:
			continue
		}
		for i, inside := range region {
			if inside {
				c.cond[i] = true
			}
		}
	}
}

// barrierIntervals returns one PC-set per interval start (entry and
// each reachable bar.sync's successors), each the set of PCs reachable
// from that start without crossing a further bar.sync. A uniform loop
// around a barrier yields exactly the dynamic inter-barrier epoch: the
// interval follows the back edge from the barrier's successor around to
// the code before the same barrier.
func (c *checker) barrierIntervals() [][]bool {
	starts := []int{0}
	for pc := range c.p.Instrs {
		if c.p.Instrs[pc].Op == isa.OpBAR && c.reachable[pc] {
			starts = append(starts, c.succ[pc]...)
		}
	}
	var out [][]bool
	seenStart := make(map[int]bool)
	for _, s := range starts {
		if seenStart[s] {
			continue
		}
		seenStart[s] = true
		seen := make([]bool, len(c.p.Instrs))
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			pc := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if c.p.Instrs[pc].Op == isa.OpBAR {
				continue // the barrier ends the interval on this path
			}
			for _, nx := range c.succ[pc] {
				if !seen[nx] {
					seen[nx] = true
					stack = append(stack, nx)
				}
			}
		}
		out = append(out, seen)
	}
	return out
}

// raceAccess is one shared-memory access eligible for the witness
// search: reached, unconditional position, exact affine address,
// decidable guard. Its guard and address are evaluated once per thread
// of the block.
type raceAccess struct {
	pc    int
	write bool // st.shared or atom.shared
	atom  bool
	addr  []int64 // by thread: the concrete byte address, or noAddr where the guard fails
	index []int32 // the threads that run the access, by address, then by thread
}

// noAddr marks a thread whose guard fails at the access.
const noAddr = math.MinInt64

// collectRaceAccesses gathers the eligible accesses, or nil when the
// prerequisites for the rule do not hold.
func (c *checker) collectRaceAccesses() []raceAccess {
	if !c.geo.known || c.geo.nThreads > maxRaceThreads || c.geo.nThreads < 2 {
		return nil
	}
	n := int(c.geo.nThreads)
	var out []raceAccess
	for pc := range c.p.Instrs {
		in := &c.p.Instrs[pc]
		if in.Op.Unit() != isa.UnitLDST || in.Space != isa.SpaceShared {
			continue
		}
		if !c.vals[pc].reached || c.cond[pc] {
			continue
		}
		av := c.accessAval(pc)
		if !av.exact() {
			continue
		}
		if !in.Pred.None {
			if _, ok := c.guardHolds(pc, 0); !ok {
				continue // no predicate fact: guard undecidable for every thread
			}
		}
		a := raceAccess{
			pc:    pc,
			write: in.Op != isa.OpLD,
			atom:  in.Op == isa.OpATOM,
			addr:  make([]int64, n),
			index: make([]int32, 0, n),
		}
		for t := range a.addr {
			if runs, _ := c.guardHolds(pc, int64(t)); !runs {
				a.addr[t] = noAddr
				continue
			}
			a.addr[t], _ = av.eval(&c.geo, int64(t))
			a.index = append(a.index, int32(t))
		}
		slices.SortStableFunc(a.index, func(x, y int32) int { return cmp.Compare(a.addr[x], a.addr[y]) })
		out = append(out, a)
	}
	return out
}

// checkSharedRace implements rule (h). Requires runValueAnalysis and
// computeCondRegions.
func (c *checker) checkSharedRace() {
	accs := c.collectRaceAccesses()
	if len(accs) == 0 {
		return
	}
	reported := make(map[[2]int]bool)
	for _, interval := range c.barrierIntervals() {
		for i := range accs {
			a1 := &accs[i]
			if !interval[a1.pc] {
				continue
			}
			for j := i; j < len(accs); j++ {
				a2 := &accs[j]
				if !interval[a2.pc] {
					continue
				}
				key := [2]int{a1.pc, a2.pc}
				if reported[key] {
					continue
				}
				if !a1.write && !a2.write {
					continue // read/read never races
				}
				if a1.atom && a2.atom {
					continue // atom.shared serializes against atom.shared
				}
				if t1, t2, b1, ok := c.interWarpWitness(a1, a2); ok {
					reported[key] = true
					c.addf(a1.pc, SevError, RuleSharedRace,
						"%s races with the %s at line %d: %s and %s of a different warp touch byte %d of .shared in the same barrier interval",
						c.p.Instrs[a1.pc].Op, c.p.Instrs[a2.pc].Op, c.p.Instrs[a2.pc].Line,
						c.geo.threadName(t1), c.geo.threadName(t2), b1)
				}
			}
		}
	}
}

// interWarpWitness searches for two threads of different warps whose
// concrete addresses for a1 and a2 overlap as 4-byte words, with both
// guards holding: the lowest such t1, then the lowest such t2. The
// returned byte is within both accesses.
func (c *checker) interWarpWitness(a1, a2 *raceAccess) (t1, t2, byteAddr int64, ok bool) {
	g := &c.geo
	for t, v1 := range a1.addr {
		if v1 == noAddr {
			continue
		}
		t1, t2 = int64(t), -1
		// a2's threads whose word overlaps v1's lie at v1-3 .. v1+3.
		lo, _ := slices.BinarySearchFunc(a2.index, v1-3, func(u int32, v int64) int { return cmp.Compare(a2.addr[u], v) })
		for _, u := range a2.index[lo:] {
			if a2.addr[u] > v1+3 {
				break
			}
			// A thread of t1's warp is ordered by lockstep.
			if int64(u)/g.warp != t1/g.warp && (t2 < 0 || int64(u) < t2) {
				t2 = int64(u)
			}
		}
		if t2 >= 0 {
			return t1, t2, max64(v1, a2.addr[t2]), true
		}
	}
	return 0, 0, 0, false
}

// fmtAval renders an affine value for diagnostics, e.g. "4*%tid.x+32".
func fmtAval(v aval, g *geom) string {
	if v.top {
		return "(unknown)"
	}
	names := [numSyms]string{"%tid.x", "%tid.y", "%laneid", "%warpid"}
	var b strings.Builder
	for s, co := range v.co {
		if co == 0 {
			continue
		}
		switch {
		case b.Len() == 0 && co == 1:
			b.WriteString(names[s])
		case b.Len() == 0:
			fmt.Fprintf(&b, "%d*%s", co, names[s])
		case co == 1:
			fmt.Fprintf(&b, "+%s", names[s])
		default:
			fmt.Fprintf(&b, "%+d*%s", co, names[s])
		}
	}
	if b.Len() == 0 {
		return fmtRange(v.lo, v.hi)
	}
	if v.lo != 0 || v.hi != 0 {
		if v.lo == v.hi {
			fmt.Fprintf(&b, "%+d", v.lo)
		} else {
			fmt.Fprintf(&b, "+[%d..%d]", v.lo, v.hi)
		}
	}
	return b.String()
}
