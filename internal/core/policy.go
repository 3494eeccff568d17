package core

import "warped/internal/arch"

// PolicyFacts are the pre-computed facts a protection policy decides
// from at issue time. All of them are already in registers on the
// issue path — nothing is looked up, hashed, or allocated to build
// one — so a policy check costs one interface call and a handful of
// integer compares (docs/POLICIES.md, "The decision point").
type PolicyFacts struct {
	WarpGID int   // SM-unique warp identifier, assigned in dispatch order
	PC      int   // program counter of the issued instruction
	Active  int   // executing (non-exited, unmasked) lane count
	Cycle   int64 // SM cycle of the issue
}

// ProtectionPolicy decides, per issued warp instruction, whether the
// DMR engine verifies it. Implementations must be deterministic pure
// functions of the facts (and of launch-time configuration resolved in
// CompilePolicy) and must not allocate: the engine calls Protect on
// the per-instruction hot path that TestLaunchSteadyStateZeroAllocs
// pins at zero allocations.
type ProtectionPolicy interface {
	Protect(f PolicyFacts) bool
}

// CompilePolicy resolves a serializable policy configuration into its
// issue-time decision procedure for one kernel launch. Launch-time
// choices (which kernel is running) are made here, once, so nothing
// per-kernel remains on the issue path.
//
// Full — and any policy that degenerates to "protect everything" for
// this kernel — compiles to nil, which the engine treats as
// unconditional protection with zero per-issue cost: the Full path
// stays byte-identical to the pre-policy engine.
func CompilePolicy(p arch.Policy, kernel string) ProtectionPolicy {
	switch p.Kind {
	case arch.PolicyFull:
		return nil
	case arch.PolicyOff:
		return offPolicy{}
	case arch.PolicyPerKernel:
		if p.ProtectsKernel(kernel) {
			return nil // full protection for this kernel
		}
		return offPolicy{}
	case arch.PolicyWarpSample:
		if p.SampleN <= 1 {
			return nil // 1/1 sampling is full protection
		}
		return warpSamplePolicy{n: p.SampleN, phase: p.SamplePhase}
	case arch.PolicyActiveMask:
		if p.MinActive <= 1 {
			return nil // every executing instruction has >= 1 lane
		}
		return activeMaskPolicy{min: p.MinActive}
	case arch.PolicyPCSet:
		if p.PCKernel != "" && p.PCKernel != kernel {
			return nil // the set is scoped to another kernel: full protection
		}
		return pcSetPolicy{ranges: p.PCRanges}
	case arch.PolicyEpoch:
		if p.EpochOn >= p.EpochPeriod {
			return nil // the window covers the whole epoch
		}
		return epochPolicy{on: int64(p.EpochOn), period: int64(p.EpochPeriod)}
	default: // future kinds default to full protection
		return nil
	}
}

// offPolicy protects nothing; eligible instructions are counted and
// skipped.
type offPolicy struct{}

func (offPolicy) Protect(PolicyFacts) bool { return false }

// warpSamplePolicy protects one warp in every n, chosen by the
// SM-unique warp ID. IDs are assigned deterministically in dispatch
// order, so the protected set is identical run to run and at any
// worker count.
type warpSamplePolicy struct{ n, phase int }

func (p warpSamplePolicy) Protect(f PolicyFacts) bool { return f.WarpGID%p.n == p.phase }

// activeMaskPolicy protects only well-utilized warp instructions.
type activeMaskPolicy struct{ min int }

func (p activeMaskPolicy) Protect(f PolicyFacts) bool { return f.Active >= p.min }

// pcSetPolicy protects a union of PC ranges — the compiled form of a
// vulnerability-synthesized policy. Ranges arrive normalized (sorted,
// disjoint) from arch.Policy.Normalized, so a linear scan with an
// early exit is the whole decision; kernel programs are short enough
// (tens of instructions, a handful of ranges) that this beats a
// per-launch bitmap while allocating nothing.
type pcSetPolicy struct{ ranges [][2]int }

func (p pcSetPolicy) Protect(f PolicyFacts) bool {
	for _, r := range p.ranges {
		if f.PC < r[0] {
			return false
		}
		if f.PC <= r[1] {
			return true
		}
	}
	return false
}

// epochPolicy protects the first on cycles of every period-cycle
// epoch: sampling DMR. Issue cycles are deterministic, so the protected
// set is identical run to run.
type epochPolicy struct{ on, period int64 }

func (p epochPolicy) Protect(f PolicyFacts) bool { return f.Cycle%p.period < p.on }
