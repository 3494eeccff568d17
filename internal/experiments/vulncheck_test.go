package experiments

import (
	"context"
	"math"
	"testing"

	"warped/internal/arch"
	"warped/internal/kernels"
	"warped/internal/metrics"
)

// TestVulnCheckMicro pins the cross-validation on the reference
// microbenchmark: the dead telemetry chain is statically unACE, every
// targeted injection into it stays invisible to the figures, and the
// synthesized policy skips a meaningful fraction of the DMR work.
func TestVulnCheckMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection grid")
	}
	b, err := kernels.ExtraByName("VulnMicro")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 4}
	rows, violations, err := e.vulnCheckBenchmark(context.Background(), b, metrics.ForVuln(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("statically-unACE PCs produced figure-visible corruption:\n%v", violations)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Kernel != "vuln_micro" || r.UnACE < 5 || r.Unknown != 0 {
		t.Errorf("classification: kernel %s, %d unACE, %d unknown; want vuln_micro, >=5, 0", r.Kernel, r.UnACE, r.Unknown)
	}
	if want := r.UnACE * len(vulnCheckBits); r.Injections != want {
		t.Errorf("ran %d injections, want %d (unACE PCs x bits)", r.Injections, want)
	}
	if r.Visible != 0 {
		t.Errorf("%d injections were figure-visible, want 0", r.Visible)
	}
	if r.Policy == "full" {
		t.Error("synthesized policy is full; the dead chain should yield a pcset")
	}
	// The acceptance bar for a "non-trivial" synthesized policy.
	if r.SkippedFrac <= 0.05 {
		t.Errorf("synthesized policy skips %.1f%% of eligible thread-instrs, want > 5%%", r.SkippedFrac*100)
	}
}

// TestVulnCheckPaperSuiteAllACE pins the analysis outcome on the paper
// suite: every Table 4 kernel is fully ACE (each computes toward stored
// output), so vulncheck performs no injections there and synthesizes no
// policy. This keeps the full-protection figures byte-identical by
// construction.
func TestVulnCheckPaperSuiteAllACE(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every benchmark")
	}
	for _, b := range kernels.All() {
		rows, violations, err := (&Engine{Workers: 2}).vulnCheckBenchmark(context.Background(), b, metrics.ForVuln(nil))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if len(violations) != 0 {
			t.Errorf("%s: unexpected violations: %v", b.Name, violations)
		}
		for _, r := range rows {
			if r.UnACE != 0 || r.Unknown != 0 || r.Policy != "full" || r.Injections != 0 {
				t.Errorf("%s/%s: unACE=%d unknown=%d policy=%s injections=%d; want fully ACE, full policy, no injections",
					b.Name, r.Kernel, r.UnACE, r.Unknown, r.Policy, r.Injections)
			}
		}
	}
}

// TestSynthSweepDetectionParity pins the headline Pareto claim: on the
// microbenchmark whose synthesized policy skips >5% of the DMR work,
// the empirical detection rate stays within one percentage point of
// full protection. Both cells inject the identical fault sequence
// (CampaignConfig draws it from (n, seed, NumSMs) alone), and random
// faults overwhelmingly activate in live code, so skipping the dead
// chain cannot cost detections.
func TestSynthSweepDetectionParity(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection campaign")
	}
	b, err := kernels.ExtraByName("VulnMicro")
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{Workers: 4}
	const trials = 24
	bs := []*kernels.Benchmark{b}
	synthesizedPolicies, err := synthesized(bs)
	if err != nil {
		t.Fatal(err)
	}
	policies := func(bi int) []arch.Policy {
		return []arch.Policy{{Kind: arch.PolicyFull}, synthesizedPolicies[bi]}
	}
	points, err := e.sweep(context.Background(), bs, policies, trials, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("sweep shape: %d points, want 2", len(points))
	}
	full, synth := points[0], points[1]
	if full.Policy != "full" {
		t.Fatalf("first point policy %q, want full", full.Policy)
	}
	if synth.Policy == "full" || synth.Policy == "off" {
		t.Fatalf("synthesized policy %q, want a selective pcset", synth.Policy)
	}
	if full.Activated == 0 {
		t.Fatal("campaign activated no faults; the parity comparison is vacuous")
	}
	if full.Activated != synth.Activated {
		t.Errorf("activation differs: full %d, synth %d (fault sequences must be identical)",
			full.Activated, synth.Activated)
	}
	if diff := math.Abs(full.Detection - synth.Detection); diff > 0.01 {
		t.Errorf("detection gap %.3f exceeds 1%%: full %.3f, synth %.3f",
			diff, full.Detection, synth.Detection)
	}
	// The synthesized point must actually be cheaper-or-equal while
	// keeping all of the live work protected.
	if synth.Protected >= 1 {
		t.Errorf("synth point protects %.3f of eligible, want < 1 (it skips the dead chain)", synth.Protected)
	}
}
