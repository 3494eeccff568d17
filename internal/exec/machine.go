package exec

import (
	"fmt"
	"math/bits"

	"warped/internal/isa"
	"warped/internal/mem"
	"warped/internal/metrics"
	"warped/internal/simt"
)

// Mem bundles the memories visible to a warp. Shadow marks a redundant
// R-Thread block: it executes with full timing but its global-memory
// side effects are suppressed (the real duplicate block writes to a
// disjoint shadow buffer; suppression models that without requiring
// every kernel to carry one).
type Mem struct {
	Global *mem.Global
	Shared *mem.Shared
	Params *mem.Params
	Shadow bool
}

// WarpState is everything Machine.Step needs about one warp: its SIMT
// control state, its register-file view, and the memories it sees.
type WarpState struct {
	Ctl  *simt.Warp
	Regs *Regs
	Mem  Mem
}

// Opts configures a Machine at construction.
type Opts struct {
	Banks int // shared-memory bank count

	// Metrics, when non-nil, receives the branch-behaviour and
	// bank-conflict counts (see internal/metrics.ForExec). Step tallies
	// them in plain fields; FlushMetrics publishes them.
	Metrics *metrics.Exec

	// Perturb is the fault-injection hook; nil means fault-free.
	Perturb Perturb
}

// Machine executes a pre-decoded program. It replaces the old
// Step(ctx, prog, w, r, segBytes, banks, perturb) parameter list: build
// one Machine per SM per launch, then call Step once per issued warp
// instruction.
//
// The Record returned by Step is owned by the Machine and reused on the
// next call — the steady-state issue path allocates nothing. Consumers
// that buffer a record past the next Step (the DMR replay queue, trace
// sinks) must copy it by value.
type Machine struct {
	code    []Decoded
	prog    *isa.Program
	banks   int
	met     *metrics.Exec
	perturb Perturb
	rec     Record

	// Plain tallies of the exec.* metrics, published by FlushMetrics.
	divergentBranches int64
	uniformBranches   int64
	sharedBankExtra   int64
}

// NewMachine builds a Machine over a compiled program.
func NewMachine(c *Compiled, o Opts) *Machine {
	return &Machine{
		code:    c.code,
		prog:    c.prog,
		banks:   o.Banks,
		met:     o.Metrics,
		perturb: o.Perturb,
	}
}

// Code returns the pre-decoded stream, indexed by PC.
func (m *Machine) Code() []Decoded { return m.code }

// FlushMetrics publishes the branch and bank-conflict tallies into the
// instrument set given at construction (a no-op without one). Call
// once, when the launch that owns the Machine returns.
func (m *Machine) FlushMetrics() {
	if m.met == nil {
		return
	}
	m.met.DivergentBranches.Add(m.divergentBranches)
	m.met.UniformBranches.Add(m.uniformBranches)
	m.met.SharedBankExtra.Add(m.sharedBankExtra)
}

// Step executes the instruction at the warp's current PC and updates
// warp control state, registers, and memory. The returned Record is
// valid until the next Step call on this Machine.
func (m *Machine) Step(ws *WarpState) (*Record, error) {
	pc := ws.Ctl.PC()
	if pc < 0 || pc >= len(m.code) {
		return nil, fmt.Errorf("exec: PC %d out of range in kernel %s", pc, m.prog.Name)
	}
	d := &m.code[pc]
	rec := &m.rec
	// Reset the scalar fields only: the per-lane arrays (SrcVals, Vals,
	// Addrs) are always read under the Executing mask, so stale lanes
	// from the previous instruction are never observed.
	rec.PC = pc
	rec.Instr = d.Instr
	rec.Dec = d
	rec.Unit = d.Unit
	rec.Active = ws.Ctl.ActiveMask()
	rec.Executing = 0
	rec.IsMem = false
	rec.BankSer = 0
	rec.IsStore = false
	rec.IsBranch = false
	rec.Taken = 0
	rec.Divergent = false
	rec.IsBarrier = false
	rec.IsExit = false
	rec.DstValid = false
	rec.Dst = 0
	return d.step(m, d, ws, rec)
}

// Branches use the guard as the branch condition.
func stepBranch(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	rec.IsBranch = true
	active := rec.Active
	taken := guardMask(ws.Regs, d.Pred, active)
	rec.Taken = taken
	rec.Executing = active
	switch {
	case taken == active: // uniform taken (or unconditional)
		ws.Ctl.Jump(d.Target)
		m.uniformBranches++
	case taken == 0: // uniform not-taken
		ws.Ctl.Advance()
		m.uniformBranches++
	default:
		rec.Divergent = true
		if err := ws.Ctl.Diverge(taken, active, d.Target, rec.PC+1, d.Reconv); err != nil {
			return nil, fmt.Errorf("exec: kernel %s pc %d: %w", m.prog.Name, rec.PC, err)
		}
		m.divergentBranches++
	}
	return rec, nil
}

func stepExit(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	executing := guardMask(ws.Regs, d.Pred, rec.Active)
	rec.Executing = executing
	rec.IsExit = true
	if executing != 0 {
		ws.Ctl.Exit(executing)
	} else {
		ws.Ctl.Advance()
	}
	return rec, nil
}

func stepBarrier(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	executing := guardMask(ws.Regs, d.Pred, rec.Active)
	rec.Executing = executing
	rec.IsBarrier = true
	ws.Ctl.AtBarrier = true
	ws.Ctl.Advance()
	return rec, nil
}

func stepNOP(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	rec.Executing = guardMask(ws.Regs, d.Pred, rec.Active)
	ws.Ctl.Advance()
	return rec, nil
}

func stepPredLogic(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	var res simt.Mask
	if d.Op == isa.OpPAND {
		res = r.Pred[d.PSrcA] & r.Pred[d.PSrcB]
	} else {
		res = ^r.Pred[d.PSrcA]
	}
	r.Pred[d.PDst] = (r.Pred[d.PDst] &^ executing) | (res & executing)
	ws.Ctl.Advance()
	return rec, nil
}

func stepSETP(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	lanes0, imm0 := d.src[0].view(r)
	lanes1, imm1 := d.src[1].view(r)
	fn := d.compute
	var pres simt.Mask
	for rem := uint32(executing); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		a, b := imm0, imm1
		if lanes0 != nil {
			a = lanes0[lane]
		}
		if lanes1 != nil {
			b = lanes1[lane]
		}
		rec.SrcVals[0][lane] = a
		rec.SrcVals[1][lane] = b
		v := fn(a, b, 0)
		if m.perturb != nil {
			v = m.perturb(lane, d.Unit, v)
		}
		rec.Vals[lane] = v
		if v != 0 {
			pres |= 1 << uint(lane)
		}
	}
	r.Pred[d.PDst] = (r.Pred[d.PDst] &^ executing) | (pres & executing)
	ws.Ctl.Advance()
	return rec, nil
}

// stepData executes SP/SFU data ops (including SELP): capture sources,
// compute per lane through the pre-bound function, apply perturbation,
// write the destination window.
func stepData(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	var lanes [3][]uint32
	var imms [3]uint32
	n := int(d.NSrc)
	for i := 0; i < n; i++ {
		lanes[i], imms[i] = d.src[i].view(r)
	}
	var sel simt.Mask
	if d.selp {
		// Fold the selector predicate into src slot 2 so the compute
		// function stays pure and replayable.
		sel = r.Pred[d.PSrcA]
	}
	var dst []uint32
	if d.HasDst {
		rec.DstValid, rec.Dst = true, d.Dst
		dst = r.gprLanes(d.Dst)
	}
	fn := d.compute
	for rem := uint32(executing); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		var a, b, c uint32
		a = imms[0]
		if lanes[0] != nil {
			a = lanes[0][lane]
		}
		rec.SrcVals[0][lane] = a
		if n > 1 {
			b = imms[1]
			if lanes[1] != nil {
				b = lanes[1][lane]
			}
			rec.SrcVals[1][lane] = b
		}
		if n > 2 {
			c = imms[2]
			if lanes[2] != nil {
				c = lanes[2][lane]
			}
			rec.SrcVals[2][lane] = c
		}
		if d.selp {
			if sel.Has(lane) {
				c = 1
			} else {
				c = 0
			}
			rec.SrcVals[2][lane] = c
		}
		v := fn(a, b, c)
		if m.perturb != nil {
			v = m.perturb(lane, d.Unit, v)
		}
		rec.Vals[lane] = v
		if dst != nil {
			dst[lane] = v
		}
	}
	ws.Ctl.Advance()
	return rec, nil
}

func stepMemOp(m *Machine, d *Decoded, ws *WarpState, rec *Record) (*Record, error) {
	r := ws.Regs
	executing := guardMask(r, d.Pred, rec.Active)
	rec.Executing = executing
	rec.IsMem = true
	rec.IsStore = d.Op == isa.OpST

	lanes0, imm0 := d.src[0].view(r)
	var lanes1 []uint32
	var imm1 uint32
	if d.NSrc > 1 {
		lanes1, imm1 = d.src[1].view(r)
	}
	off := uint32(d.Off)
	for rem := uint32(executing); rem != 0; rem &= rem - 1 {
		lane := bits.TrailingZeros32(rem)
		a := imm0
		if lanes0 != nil {
			a = lanes0[lane]
		}
		rec.SrcVals[0][lane] = a
		if d.NSrc > 1 {
			b := imm1
			if lanes1 != nil {
				b = lanes1[lane]
			}
			rec.SrcVals[1][lane] = b
		}
		addr := a + off
		if m.perturb != nil {
			addr = m.perturb(lane, isa.UnitLDST, addr)
		}
		rec.Addrs[lane] = addr
		rec.Vals[lane] = addr
	}

	switch d.Space {
	case isa.SpaceShared:
		rec.BankSer = mem.BankConflictDegree(rec.Addrs[:], uint32(executing), m.banks)
		m.sharedBankExtra += int64(rec.BankSer - 1)
	case isa.SpaceGlobal, isa.SpaceParam, isa.SpaceLocal:
		rec.BankSer = 1
	}

	switch d.Op {
	case isa.OpLD:
		rec.DstValid, rec.Dst = true, d.Dst
		dst := r.gprLanes(d.Dst)
		for rem := uint32(executing); rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			v, err := ws.load32(d.Space, rec.Addrs[lane])
			if err != nil {
				return nil, fmt.Errorf("exec: pc %d lane %d: %w", rec.PC, lane, err)
			}
			dst[lane] = v
		}
	case isa.OpST:
		if ws.Mem.Shadow && d.Space != isa.SpaceShared {
			break // redundant block: global stores go to its shadow buffer
		}
		for rem := uint32(executing); rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			if err := ws.store32(d.Space, rec.Addrs[lane], rec.SrcVals[1][lane]); err != nil {
				return nil, fmt.Errorf("exec: pc %d lane %d: %w", rec.PC, lane, err)
			}
		}
	case isa.OpATOM:
		rec.DstValid, rec.Dst = true, d.Dst
		dst := r.gprLanes(d.Dst)
		for rem := uint32(executing); rem != 0; rem &= rem - 1 {
			lane := bits.TrailingZeros32(rem)
			var old uint32
			var err error
			switch {
			case d.Space == isa.SpaceShared:
				old, err = ws.Mem.Shared.AtomicAdd32(rec.Addrs[lane], rec.SrcVals[1][lane])
			case ws.Mem.Shadow:
				old, err = ws.Mem.Global.Load32(rec.Addrs[lane]) // read-only in shadow mode
			default:
				old, err = ws.Mem.Global.AtomicAdd32(rec.Addrs[lane], rec.SrcVals[1][lane])
			}
			if err != nil {
				return nil, fmt.Errorf("exec: pc %d lane %d: %w", rec.PC, lane, err)
			}
			dst[lane] = old
		}
	default:
		return nil, fmt.Errorf("exec: pc %d: %s is not a memory op", rec.PC, d.Op)
	}
	ws.Ctl.Advance()
	return rec, nil
}

func (ws *WarpState) load32(space isa.MemSpace, addr uint32) (uint32, error) {
	switch space {
	case isa.SpaceShared:
		return ws.Mem.Shared.Load32(addr)
	case isa.SpaceParam:
		return ws.Mem.Params.Load32(addr)
	case isa.SpaceGlobal, isa.SpaceLocal:
		return ws.Mem.Global.Load32(addr)
	}
	return 0, fmt.Errorf("exec: load from unknown space %d", space)
}

func (ws *WarpState) store32(space isa.MemSpace, addr, v uint32) error {
	switch space {
	case isa.SpaceShared:
		return ws.Mem.Shared.Store32(addr, v)
	case isa.SpaceParam:
		return fmt.Errorf("exec: store to param space")
	case isa.SpaceGlobal, isa.SpaceLocal:
		return ws.Mem.Global.Store32(addr, v)
	}
	return fmt.Errorf("exec: store to unknown space %d", space)
}
