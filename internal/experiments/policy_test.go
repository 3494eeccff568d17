package experiments

import (
	"context"
	"reflect"
	"testing"

	"warped/internal/arch"
	"warped/internal/kernels"
	"warped/internal/sim"
)

// TestPolicyFullByteIdentical pins the contract in docs/POLICIES.md:
// the Full policy — and every spelling that degenerates to it — is
// byte-identical to a policy-free run. All three configs must produce
// exactly the same per-benchmark statistics, and under Full every
// eligible thread-instruction is protected.
func TestPolicyFullByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid")
	}
	base := arch.WarpedDMRConfig() // zero-value policy IS Full

	explicit := arch.WarpedDMRConfig()
	explicit.Policy = arch.Policy{Kind: arch.PolicyFull}

	degenerateKernel := arch.WarpedDMRConfig()
	degenerateKernel.Policy = arch.Policy{
		Kind: arch.PolicyPerKernel, Kernels: []string{"__nonexistent__"}, Exclude: true,
	}

	degenerateSample := arch.WarpedDMRConfig()
	degenerateSample.Policy = arch.Policy{Kind: arch.PolicyWarpSample, SampleN: 1}

	e := &Engine{}
	names, res, err := e.runGrid(context.Background(), kernels.All(),
		[]arch.Config{base, explicit, degenerateKernel, degenerateSample}, sim.LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for bi, name := range names {
		want := res[0][bi]
		for ci := 1; ci < len(res); ci++ {
			if !reflect.DeepEqual(res[ci][bi], want) {
				t.Errorf("%s: config %d stats differ from the policy-free run:\ngot  %+v\nwant %+v",
					name, ci, res[ci][bi], want)
			}
		}
		if want.ProtectedTI != want.EligibleTI || want.SkippedTI != 0 {
			t.Errorf("%s: Full policy must protect everything: protected %d, skipped %d, eligible %d",
				name, want.ProtectedTI, want.SkippedTI, want.EligibleTI)
		}
	}
}

// TestWarpSampleDeterministic pins the determinism rule in
// docs/POLICIES.md: warp GIDs are assigned in dispatch order, so the
// protected set under warpsample is a pure function of the workload and
// config — a serial run and a parallel run agree exactly.
func TestWarpSampleDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid")
	}
	cfg := arch.WarpedDMRConfig()
	cfg.Policy = arch.Policy{Kind: arch.PolicyWarpSample, SampleN: 4}

	serial := &Engine{Workers: 1}
	parallel := &Engine{Workers: 8}
	names, serialRes, err := serial.runGrid(context.Background(), kernels.All(), []arch.Config{cfg}, sim.LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_, parallelRes, err := parallel.runGrid(context.Background(), kernels.All(), []arch.Config{cfg}, sim.LaunchOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for bi, name := range names {
		if !reflect.DeepEqual(serialRes[0][bi], parallelRes[0][bi]) {
			t.Errorf("%s: serial and parallel runs disagree under warpsample:1/4:\nserial   %+v\nparallel %+v",
				name, serialRes[0][bi], parallelRes[0][bi])
		}
		st := serialRes[0][bi]
		if st.ProtectedTI+st.SkippedTI != st.EligibleTI {
			t.Errorf("%s: protected (%d) + skipped (%d) != eligible (%d)",
				name, st.ProtectedTI, st.SkippedTI, st.EligibleTI)
		}
	}
}

// TestParetoSweepShape pins the harness output contract: one point per
// (benchmark, policy) cell with sane endpoint behaviour — Full protects
// everything, Off protects nothing and pays (approximately) nothing.
func TestParetoSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark grid")
	}
	r, err := (&Engine{}).Pareto(context.Background(), ParetoSpec{})
	if err != nil {
		t.Fatal(err)
	}
	wantPolicies := len(DefaultParetoPolicies())
	if len(r.Names) == 0 || len(r.Policies) != wantPolicies {
		t.Fatalf("sweep shape: %d benchmarks x %d policies, want %d policies",
			len(r.Names), len(r.Policies), wantPolicies)
	}
	if got, want := len(r.Points), len(r.Names)*wantPolicies; got != want {
		t.Fatalf("sweep has %d points, want %d", got, want)
	}
	// Default sweep order: full first, off last.
	for bi, name := range r.Names {
		full := r.Point(bi, 0)
		off := r.Point(bi, wantPolicies-1)
		if full.Policy != "full" || off.Policy != "off" {
			t.Fatalf("%s: endpoint policies are %q..%q, want full..off", name, full.Policy, off.Policy)
		}
		if full.Protected != 1 {
			t.Errorf("%s: full point protects %.3f of eligible, want 1", name, full.Protected)
		}
		if off.Protected != 0 || off.Coverage != 0 {
			t.Errorf("%s: off point protected %.3f coverage %.3f, want 0/0", name, off.Protected, off.Coverage)
		}
		if full.Coverage < off.Coverage {
			t.Errorf("%s: full coverage %.3f below off coverage %.3f", name, full.Coverage, off.Coverage)
		}
		if full.BaseCycles <= 0 || full.Cycles <= 0 {
			t.Errorf("%s: non-positive cycle counts: %d / base %d", name, full.Cycles, full.BaseCycles)
		}
	}
}
