package core

import (
	"testing"

	"warped/internal/arch"
)

// TestCompilePolicyDegeneratesToNil: every configuration that means
// "protect everything" must compile to nil, because nil is the
// zero-cost path the byte-identical guarantee rides on.
func TestCompilePolicyDegeneratesToNil(t *testing.T) {
	cases := []struct {
		name   string
		p      arch.Policy
		kernel string
	}{
		{"zero value", arch.Policy{}, "K"},
		{"explicit full", arch.Policy{Kind: arch.PolicyFull}, "K"},
		{"kernel listed", arch.Policy{Kind: arch.PolicyPerKernel, Kernels: []string{"K"}}, "K"},
		{"kernel not excluded", arch.Policy{Kind: arch.PolicyPerKernel, Kernels: []string{"other"}, Exclude: true}, "K"},
		{"1/1 sampling", arch.Policy{Kind: arch.PolicyWarpSample, SampleN: 1}, "K"},
		{"activemask 1", arch.Policy{Kind: arch.PolicyActiveMask, MinActive: 1}, "K"},
		{"pcset scoped elsewhere", arch.Policy{Kind: arch.PolicyPCSet, PCRanges: [][2]int{{0, 4}}, PCKernel: "other"}, "K"},
		{"epoch window covers the epoch", arch.Policy{Kind: arch.PolicyEpoch, EpochOn: 100, EpochPeriod: 100}, "K"},
	}
	for _, c := range cases {
		if got := CompilePolicy(c.p, c.kernel); got != nil {
			t.Errorf("%s: CompilePolicy(%v, %q) = %T, want nil", c.name, c.p, c.kernel, got)
		}
	}
}

// TestCompilePolicyDecisions: each compiled policy's Protect matches
// its documented predicate.
func TestCompilePolicyDecisions(t *testing.T) {
	off := CompilePolicy(arch.Policy{Kind: arch.PolicyOff}, "K")
	if off == nil || off.Protect(PolicyFacts{WarpGID: 1, Active: 32}) {
		t.Error("off policy must protect nothing")
	}

	unlisted := CompilePolicy(arch.Policy{Kind: arch.PolicyPerKernel, Kernels: []string{"other"}}, "K")
	if unlisted == nil || unlisted.Protect(PolicyFacts{WarpGID: 1, Active: 32}) {
		t.Error("per-kernel policy must skip an unlisted kernel entirely")
	}

	ws := CompilePolicy(arch.Policy{Kind: arch.PolicyWarpSample, SampleN: 4, SamplePhase: 1}, "K")
	for wid := 0; wid < 12; wid++ {
		want := wid%4 == 1
		if got := ws.Protect(PolicyFacts{WarpGID: wid}); got != want {
			t.Errorf("warpsample:1/4+1 Protect(wid=%d) = %v, want %v", wid, got, want)
		}
	}

	am := CompilePolicy(arch.Policy{Kind: arch.PolicyActiveMask, MinActive: 16}, "K")
	for _, c := range []struct {
		active int
		want   bool
	}{{1, false}, {15, false}, {16, true}, {32, true}} {
		if got := am.Protect(PolicyFacts{Active: c.active}); got != c.want {
			t.Errorf("activemask:16 Protect(active=%d) = %v, want %v", c.active, got, c.want)
		}
	}

	ep := CompilePolicy(arch.Policy{Kind: arch.PolicyEpoch, EpochOn: 25, EpochPeriod: 100}, "K")
	for _, c := range []struct {
		cycle int64
		want  bool
	}{{0, true}, {24, true}, {25, false}, {99, false}, {100, true}, {124, true}, {125, false}} {
		if got := ep.Protect(PolicyFacts{Cycle: c.cycle}); got != c.want {
			t.Errorf("epoch:25/100 Protect(cycle=%d) = %v, want %v", c.cycle, got, c.want)
		}
	}

	set := arch.Policy{Kind: arch.PolicyPCSet, PCRanges: [][2]int{{0, 2}, {6, 8}}, PCKernel: "K"}
	ps := CompilePolicy(set, "K")
	for _, c := range []struct {
		pc   int
		want bool
	}{{0, true}, {2, true}, {3, false}, {5, false}, {6, true}, {8, true}, {9, false}} {
		if got := ps.Protect(PolicyFacts{PC: c.pc}); got != c.want {
			t.Errorf("pcset:K@0-2,6-8 Protect(pc=%d) = %v, want %v", c.pc, got, c.want)
		}
	}
	if unscoped := CompilePolicy(arch.Policy{Kind: arch.PolicyPCSet, PCRanges: [][2]int{{1, 1}}}, "K"); unscoped == nil {
		t.Error("unscoped pcset must apply to every kernel, not compile to nil")
	}
}
