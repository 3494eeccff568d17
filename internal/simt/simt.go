// Package simt models per-warp control state: the post-dominator (PDOM)
// reconvergence stack that serializes divergent branch paths, lane
// liveness, and barrier bookkeeping. It is purely architectural state;
// timing lives in internal/sim.
package simt

import (
	"fmt"
	"math/bits"
)

// Mask is a 32-bit lane mask; bit i set means lane i participates.
type Mask uint32

// FullMask returns a mask with the low n bits set.
func FullMask(n int) Mask {
	if n >= 32 {
		return ^Mask(0)
	}
	return Mask(1)<<uint(n) - 1
}

// Count returns the number of set lanes.
func (m Mask) Count() int { return bits.OnesCount32(uint32(m)) }

// Has reports whether lane is set.
func (m Mask) Has(lane int) bool { return m&(1<<uint(lane)) != 0 }

// NoReconv marks a stack entry that never reconverges (the base frame).
const NoReconv = -1

// frame is one PDOM stack entry: a pending execution path.
type frame struct {
	pc   int
	rpc  int // reconvergence PC; NoReconv for the base frame
	mask Mask
}

// Warp holds the control state of one warp.
type Warp struct {
	ID        int // warp index within its block
	BlockID   int // linear block index within the grid
	stack     []frame
	exited    Mask // lanes that executed EXIT
	width     int  // lanes in this warp (< 32 for the tail warp)
	AtBarrier bool

	diverges int64 // path splits taken by this warp
	maxDepth int   // peak reconvergence-stack depth
}

// NewWarp creates a warp of `width` live lanes starting at PC 0.
func NewWarp(id, blockID, width int) *Warp {
	w := &Warp{ID: id, BlockID: blockID, width: width, maxDepth: 1}
	w.stack = append(w.stack, frame{pc: 0, rpc: NoReconv, mask: FullMask(width)})
	return w
}

// Width returns the number of lanes the warp launched with.
func (w *Warp) Width() int { return w.width }

// Done reports whether every launched lane has exited.
func (w *Warp) Done() bool { return len(w.stack) == 0 }

// PC returns the warp's current program counter.
// Calling PC on a finished warp panics: it is a scheduler bug.
func (w *Warp) PC() int { return w.top().pc }

// ActiveMask returns the lanes that will execute the next instruction
// (before guard predication).
func (w *Warp) ActiveMask() Mask { return w.top().mask &^ w.exited }

// StackDepth returns the current reconvergence stack depth.
func (w *Warp) StackDepth() int { return len(w.stack) }

// MaxStackDepth returns the deepest the reconvergence stack has been
// over the warp's lifetime (1 for a warp that never diverged). The
// observability layer rolls this into the simt.reconv_stack_depth
// histogram when the warp finishes.
func (w *Warp) MaxStackDepth() int { return w.maxDepth }

// Diverges returns how many divergent branches (path splits) the warp
// has taken over its lifetime.
func (w *Warp) Diverges() int64 { return w.diverges }

func (w *Warp) top() *frame {
	if len(w.stack) == 0 {
		panic("simt: control query on finished warp")
	}
	return &w.stack[len(w.stack)-1]
}

// Advance moves the warp past a non-branch instruction and performs any
// reconvergence pops that fall due.
func (w *Warp) Advance() {
	w.top().pc++
	w.settle()
}

// Jump redirects the whole current path (uniform branch).
func (w *Warp) Jump(target int) {
	w.top().pc = target
	w.settle()
}

// Diverge splits the current path at a divergent branch.
// takenMask must be a non-empty strict subset of the executing mask.
// The taken path (target) runs first, then the fall-through, and both
// merge at reconv.
func (w *Warp) Diverge(takenMask Mask, executing Mask, target, fallthrough_, reconv int) error {
	t := w.top()
	if takenMask == 0 || takenMask&^executing != 0 || takenMask == executing {
		return fmt.Errorf("simt: Diverge with non-divergent mask %08x of %08x", takenMask, executing)
	}
	if executing&^t.mask != 0 {
		return fmt.Errorf("simt: executing mask %08x outside path mask %08x", executing, t.mask)
	}
	// The current frame becomes the merged continuation at reconv.
	t.pc = reconv
	notTaken := executing &^ takenMask
	w.stack = append(w.stack,
		frame{pc: fallthrough_, rpc: reconv, mask: notTaken},
		frame{pc: target, rpc: reconv, mask: takenMask},
	)
	w.diverges++
	if len(w.stack) > w.maxDepth {
		w.maxDepth = len(w.stack)
	}
	w.settle()
	return nil
}

// Exit terminates the given lanes (the executing mask of an EXIT).
func (w *Warp) Exit(mask Mask) {
	w.exited |= mask
	if len(w.stack) > 0 && w.top().mask&^w.exited != 0 {
		// Some lanes on the current path survived a guarded EXIT and
		// continue with the next instruction.
		w.Advance()
		return
	}
	// Drop fully-exited frames (including, possibly, the base frame);
	// the next pending path resumes at its own saved PC.
	for len(w.stack) > 0 && w.top().mask&^w.exited == 0 {
		w.stack = w.stack[:len(w.stack)-1]
	}
	w.settle()
}

// settle pops frames that have reached their reconvergence point and
// skips frames whose lanes have all exited.
func (w *Warp) settle() {
	for len(w.stack) > 0 {
		t := w.top()
		if t.mask&^w.exited == 0 && t.rpc != NoReconv {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if t.rpc != NoReconv && t.pc == t.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return
	}
}

// CheckInvariants validates internal consistency; used by tests and
// enabled in the simulator's debug mode. It returns an error if any
// PDOM invariant is violated.
func (w *Warp) CheckInvariants() error {
	full := FullMask(w.width)
	if w.exited&^full != 0 {
		return fmt.Errorf("simt: exited mask %08x outside warp width %d", w.exited, w.width)
	}
	for i, f := range w.stack {
		if f.mask == 0 {
			return fmt.Errorf("simt: empty mask in frame %d", i)
		}
		if f.mask&^full != 0 {
			return fmt.Errorf("simt: frame %d mask %08x outside width", i, f.mask)
		}
		if i == 0 {
			if f.rpc != NoReconv {
				return fmt.Errorf("simt: base frame has rpc %d", f.rpc)
			}
			continue
		}
		// Sibling/nesting property: a frame's lanes must be a subset of
		// some ancestor's lanes. We check against the base frame only,
		// since divergence always splits an existing path.
		if f.mask&^w.stack[0].mask != 0 {
			return fmt.Errorf("simt: frame %d mask %08x outside base mask %08x", i, f.mask, w.stack[0].mask)
		}
	}
	return nil
}
