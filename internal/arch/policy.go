package arch

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// PolicyKind selects the selective-protection policy family: which
// eligible warp instructions the Warped-DMR engine actually verifies.
// The paper protects everything (PolicyFull); the other kinds trade
// coverage for overhead along the axes partial-protection work (Yang
// et al., PAPERS.md) shows matter: which kernels, which warps, which
// program regions, which cycles, and how utilized the warp is.
// docs/POLICIES.md is the policy contract.
type PolicyKind int

const (
	// PolicyFull protects every eligible instruction — the paper's
	// always-on Warped-DMR, and the zero value: a Config that never
	// mentions policies behaves exactly as before they existed.
	PolicyFull PolicyKind = iota
	// PolicyOff protects nothing. Unlike DMROff, the machine still
	// counts eligible instructions, so coverage reads 0 instead of
	// being undefined — the Pareto sweep's origin point.
	PolicyOff
	// PolicyPerKernel protects only the kernels listed in
	// Policy.Kernels (or everything except them, with Exclude).
	PolicyPerKernel
	// PolicyWarpSample protects one warp in every Policy.SampleN,
	// selected deterministically by warp ID.
	PolicyWarpSample
	// PolicyActiveMask protects only instructions with at least
	// Policy.MinActive executing lanes — the warps whose verification
	// inter-warp DMR makes cheap.
	PolicyActiveMask
	// PolicyPCSet protects the union of the PC ranges in
	// Policy.PCRanges, optionally scoped to one kernel (other kernels
	// stay fully protected): region protection for a kernel's
	// vulnerable phases, and the spelling SynthesizePolicy emits.
	PolicyPCSet
	// PolicyEpoch protects only instructions issued in the first
	// Policy.EpochOn cycles of every Policy.EpochPeriod-cycle epoch:
	// sampling DMR (Nomura et al., ISCA'11), the paper's related-work
	// comparison point. It detects permanent faults eventually but
	// misses transients that strike outside the sampled window.
	PolicyEpoch
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyFull:
		return "full"
	case PolicyOff:
		return "off"
	case PolicyPerKernel:
		return "kernel"
	case PolicyWarpSample:
		return "warpsample"
	case PolicyActiveMask:
		return "activemask"
	case PolicyPCSet:
		return "pcset"
	case PolicyEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// Policy is the serializable selective-protection configuration. It
// rides inside Config, so it reaches every consumer a Config reaches:
// the engine, the CLIs, and the warpd job hash — two jobs that differ
// only in policy are distinct cache entries. The zero value is
// PolicyFull with no parameters, which is byte-identical to the
// pre-policy engine.
//
// Only the fields its Kind reads are meaningful; Normalize zeroes the
// rest so wire-level noise cannot fork a content hash.
type Policy struct {
	Kind PolicyKind

	// SampleN/SamplePhase (PolicyWarpSample): protect warps whose
	// SM-unique warp ID wid satisfies wid % SampleN == SamplePhase.
	// Warp IDs are assigned deterministically in dispatch order, so the
	// protected set is a pure function of (workload, config).
	SampleN     int
	SamplePhase int

	// MinActive (PolicyActiveMask): protect instructions with at least
	// this many executing lanes (1..32).
	MinActive int

	// EpochOn/EpochPeriod (PolicyEpoch): protect instructions whose
	// SM issue cycle c satisfies c % EpochPeriod < EpochOn.
	EpochOn     int
	EpochPeriod int

	// PCRanges/PCKernel (PolicyPCSet): protect instructions whose PC
	// lies in any [lo, hi] pair of PCRanges. When PCKernel is non-empty
	// the set applies only to that kernel and every other kernel stays
	// fully protected — the scoping SynthesizePolicy needs so a policy
	// derived from one kernel's liveness never weakens its neighbours.
	PCRanges [][2]int
	PCKernel string

	// Kernels/Exclude (PolicyPerKernel): the kernel names the policy
	// selects. Exclude false protects exactly the listed kernels;
	// Exclude true protects everything except them.
	Kernels []string
	Exclude bool
}

// String renders the policy in the spelling ParsePolicy accepts — the
// one the CLIs' -policy flags and the warpd job spec use:
//
//	full
//	off
//	kernel:NAME[,NAME...]        kernel:!NAME[,NAME...]
//	warpsample:1/N[+PHASE]
//	activemask:MIN
//	pcset:[KERNEL@]LO-HI[,LO-HI...]
//	epoch:ON/PERIOD
func (p Policy) String() string {
	switch p.Kind {
	case PolicyFull:
		return "full"
	case PolicyOff:
		return "off"
	case PolicyPerKernel:
		neg := ""
		if p.Exclude {
			neg = "!"
		}
		return "kernel:" + neg + strings.Join(p.Kernels, ",")
	case PolicyWarpSample:
		if p.SamplePhase != 0 {
			return fmt.Sprintf("warpsample:1/%d+%d", p.SampleN, p.SamplePhase)
		}
		return fmt.Sprintf("warpsample:1/%d", p.SampleN)
	case PolicyActiveMask:
		return fmt.Sprintf("activemask:%d", p.MinActive)
	case PolicyPCSet:
		var b strings.Builder
		b.WriteString("pcset:")
		if p.PCKernel != "" {
			b.WriteString(p.PCKernel)
			b.WriteByte('@')
		}
		for i, r := range p.PCRanges {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d-%d", r[0], r[1])
		}
		return b.String()
	case PolicyEpoch:
		return fmt.Sprintf("epoch:%d/%d", p.EpochOn, p.EpochPeriod)
	default:
		return fmt.Sprintf("Policy(%d)", int(p.Kind))
	}
}

// ParsePolicy parses the String spelling. The result is normalized and
// validated, so a parsed policy is ready to hash.
func ParsePolicy(s string) (Policy, error) {
	var p Policy
	kind, arg, hasArg := strings.Cut(strings.TrimSpace(s), ":")
	switch strings.ToLower(kind) {
	case "", "full":
		p.Kind = PolicyFull
	case "off", "none":
		p.Kind = PolicyOff
	case "kernel", "perkernel":
		p.Kind = PolicyPerKernel
		if strings.HasPrefix(arg, "!") {
			p.Exclude = true
			arg = arg[1:]
		}
		for _, name := range strings.Split(arg, ",") {
			if name = strings.TrimSpace(name); name != "" {
				p.Kernels = append(p.Kernels, name)
			}
		}
		if len(p.Kernels) == 0 {
			return p, fmt.Errorf("arch: policy %q: kernel policy needs at least one kernel name", s)
		}
	case "warpsample", "sample":
		p.Kind = PolicyWarpSample
		num := arg
		if phase, ok := strings.CutPrefix(arg, "1/"); ok {
			num = phase
		}
		if n, phase, ok := cutInt(num, "+"); ok {
			p.SampleN, p.SamplePhase = n, phase
		} else if n, err := strconv.Atoi(num); err == nil {
			p.SampleN = n
		} else {
			return p, fmt.Errorf("arch: policy %q: want warpsample:1/N[+PHASE], got %q", s, arg)
		}
	case "activemask", "active":
		n, err := strconv.Atoi(arg)
		if err != nil {
			return p, fmt.Errorf("arch: policy %q: want activemask:MIN, got %q", s, arg)
		}
		p.Kind, p.MinActive = PolicyActiveMask, n
	case "pcset", "pcrange", "pc":
		p.Kind = PolicyPCSet
		ranges := arg
		if scope, rest, found := strings.Cut(arg, "@"); found {
			p.PCKernel, ranges = strings.TrimSpace(scope), rest
		}
		for _, r := range strings.Split(ranges, ",") {
			if r = strings.TrimSpace(r); r == "" {
				continue
			}
			lo, hi, ok := cutInt(r, "-")
			if !ok {
				return p, fmt.Errorf("arch: policy %q: want pcset:[KERNEL@]LO-HI[,LO-HI...], got range %q", s, r)
			}
			p.PCRanges = append(p.PCRanges, [2]int{lo, hi})
		}
		if len(p.PCRanges) == 0 {
			return p, fmt.Errorf("arch: policy %q: pcset needs at least one LO-HI range", s)
		}
	case "epoch":
		on, period, ok := cutInt(arg, "/")
		if !ok {
			return p, fmt.Errorf("arch: policy %q: want epoch:ON/PERIOD, got %q", s, arg)
		}
		p.Kind, p.EpochOn, p.EpochPeriod = PolicyEpoch, on, period
	default:
		return p, fmt.Errorf("arch: unknown policy %q (want full, off, kernel:..., warpsample:1/N, activemask:MIN, pcset:... or epoch:ON/PERIOD)", s)
	}
	if hasArg && (p.Kind == PolicyFull || p.Kind == PolicyOff) && arg != "" {
		return p, fmt.Errorf("arch: policy %q takes no argument", kind)
	}
	p = p.Normalized()
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// cutInt parses "A+B" into (A, B); ok is false unless both halves are
// integers and the separator is present.
func cutInt(s, sep string) (a, b int, ok bool) {
	as, bs, found := strings.Cut(s, sep)
	if !found {
		return 0, 0, false
	}
	a, errA := strconv.Atoi(as)
	b, errB := strconv.Atoi(bs)
	return a, b, errA == nil && errB == nil
}

// Normalized returns the canonical form of the policy: parameters of
// other kinds zeroed, kernel lists sorted and deduplicated, and every
// spelling that protects everything whatever the kernel
// (warpsample:1/1, activemask:1, epoch:N/N) made full. Content hashing
// and equality checks must go through it — two spellings of the same
// policy normalize identically.
func (p Policy) Normalized() Policy {
	out := Policy{Kind: p.Kind}
	switch p.Kind {
	case PolicyFull, PolicyOff:
		// No parameters: the kind alone is the canonical form.
	case PolicyPerKernel:
		ks := append([]string(nil), p.Kernels...)
		sort.Strings(ks)
		ks = slicesCompact(ks)
		out.Kernels, out.Exclude = ks, p.Exclude
	case PolicyWarpSample:
		if p.SampleN == 1 {
			return Policy{}
		}
		out.SampleN = p.SampleN
		if out.SampleN > 0 {
			out.SamplePhase = ((p.SamplePhase % out.SampleN) + out.SampleN) % out.SampleN
		}
	case PolicyActiveMask:
		if p.MinActive == 1 {
			return Policy{}
		}
		out.MinActive = p.MinActive
	case PolicyPCSet:
		out.PCKernel = p.PCKernel
		out.PCRanges = mergeRanges(p.PCRanges)
	case PolicyEpoch:
		if p.EpochOn == p.EpochPeriod && p.EpochPeriod >= 1 {
			return Policy{}
		}
		out.EpochOn, out.EpochPeriod = p.EpochOn, p.EpochPeriod
	}
	return out
}

// mergeRanges sorts inclusive [lo, hi] ranges and coalesces any that
// overlap or touch, so every protected-PC set has exactly one spelling.
// Empty ranges (hi < lo) survive only if nothing absorbs them, which
// keeps Validate able to reject them.
func mergeRanges(rs [][2]int) [][2]int {
	if len(rs) == 0 {
		return nil
	}
	sorted := append([][2]int(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	out := sorted[:1]
	for _, r := range sorted[1:] {
		last := &out[len(out)-1]
		if r[0] <= last[1]+1 {
			if r[1] > last[1] {
				last[1] = r[1]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// slicesCompact removes adjacent duplicates from a sorted slice.
func slicesCompact(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Validate reports the first policy-configuration error, or nil.
func (p Policy) Validate() error {
	switch p.Kind {
	case PolicyFull, PolicyOff:
		return nil
	case PolicyPerKernel:
		if len(p.Kernels) == 0 {
			return fmt.Errorf("arch: kernel policy needs at least one kernel name")
		}
		for _, k := range p.Kernels {
			// A leading '!' would print as the exclusion marker.
			if strings.HasPrefix(k, "!") {
				return fmt.Errorf("arch: kernel policy name %q starts with '!'; only the list may be negated", k)
			}
		}
		return nil
	case PolicyWarpSample:
		if p.SampleN < 1 {
			return fmt.Errorf("arch: warpsample period must be at least 1, got %d", p.SampleN)
		}
		if p.SamplePhase < 0 || p.SamplePhase >= p.SampleN {
			return fmt.Errorf("arch: warpsample phase %d out of 0..%d", p.SamplePhase, p.SampleN-1)
		}
		return nil
	case PolicyActiveMask:
		if p.MinActive < 1 || p.MinActive > 32 {
			return fmt.Errorf("arch: activemask threshold %d out of 1..32", p.MinActive)
		}
		return nil
	case PolicyPCSet:
		if len(p.PCRanges) == 0 {
			return fmt.Errorf("arch: pcset needs at least one PC range")
		}
		for _, r := range p.PCRanges {
			if r[0] < 0 || r[1] < r[0] {
				return fmt.Errorf("arch: pcset range %d-%d is not a valid PC interval", r[0], r[1])
			}
		}
		return nil
	case PolicyEpoch:
		if p.EpochPeriod < 1 || p.EpochOn < 0 || p.EpochOn > p.EpochPeriod {
			return fmt.Errorf("arch: epoch window %d/%d needs 0 <= ON <= PERIOD and PERIOD >= 1", p.EpochOn, p.EpochPeriod)
		}
		return nil
	default:
		return fmt.Errorf("arch: unknown policy kind %d", int(p.Kind))
	}
}

// ProtectsKernel reports whether the policy protects any instruction
// of the named kernel at all — the launch-time (per-kernel) half of
// the decision. Issue-time kinds return true here and decide per
// instruction instead.
func (p Policy) ProtectsKernel(name string) bool {
	switch p.Kind {
	case PolicyOff:
		return false
	case PolicyPerKernel:
		listed := false
		for _, k := range p.Kernels {
			if k == name {
				listed = true
				break
			}
		}
		return listed != p.Exclude
	case PolicyFull, PolicyWarpSample, PolicyActiveMask, PolicyPCSet, PolicyEpoch:
		return true
	default:
		return true
	}
}
