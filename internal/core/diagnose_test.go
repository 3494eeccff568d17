package core

import (
	"testing"

	"warped/internal/arch"
	"warped/internal/isa"
	"warped/internal/stats"
)

func TestDiagnoserConvergesOnFaultyLane(t *testing.T) {
	d := NewDiagnoser()
	// Lane 6 of SM 2 is stuck; shuffled partners rotate through its
	// cluster (lanes 4-7).
	partners := []int{5, 7, 4, 5, 7}
	for _, p := range partners {
		d.Observe(ErrorEvent{SM: 2, OrigLane: 6, VerifLane: p})
	}
	sm, lane, conf := d.Suspect()
	if !conf || sm != 2 || lane != 6 {
		t.Errorf("Suspect = (%d,%d,%v), want (2,6,true)", sm, lane, conf)
	}
	if d.Events() != len(partners) {
		t.Errorf("events = %d", d.Events())
	}
	if d.Report() == "" {
		t.Error("empty report")
	}
}

func TestDiagnoserNeedsEvidence(t *testing.T) {
	d := NewDiagnoser()
	if _, _, conf := d.Suspect(); conf {
		t.Error("no events should not be confident")
	}
	d.Observe(ErrorEvent{SM: 0, OrigLane: 1, VerifLane: 2})
	if _, _, conf := d.Suspect(); conf {
		t.Error("one event cannot separate the two implicated lanes")
	}
}

func TestDiagnoserAmbiguousPair(t *testing.T) {
	d := NewDiagnoser()
	// The same pair keeps appearing (shuffling disabled): both lanes
	// are implicated equally, so no confident verdict is possible.
	for i := 0; i < 10; i++ {
		d.Observe(ErrorEvent{SM: 0, OrigLane: 1, VerifLane: 2})
	}
	if _, _, conf := d.Suspect(); conf {
		t.Error("a constant pair must stay ambiguous")
	}
}

// TestDiagnoserEndToEnd drives the whole stack: a stuck-at lane fault,
// the DMR engine detecting mismatches, the diagnoser fingering the lane.
func TestDiagnoserEndToEnd(t *testing.T) {
	cfg := arch.WarpedDMRConfig()
	const badLane = 9
	perturb := func(lane int, unit isa.UnitClass, golden uint32) uint32 {
		if lane == badLane && unit == isa.UnitSP {
			return golden ^ 4
		}
		return golden
	}
	d := NewDiagnoser()
	st := &stats.Stats{}
	e := NewEngine(cfg, 3, st, nil, nil, perturb, d.Observe)

	for i := 0; i < 12; i++ {
		rec := fullRec(isa.OpIADD, 1, 2, 3)
		for th := 0; th < 32; th++ {
			rec.SrcVals[0][th] = uint32(th + i)
			rec.SrcVals[1][th] = uint32(i)
			golden := uint32(th+i) + uint32(i)
			rec.Vals[th] = perturb(cfg.LaneForThread(th), isa.UnitSP, golden)
		}
		e.Issue(IssueInfo{Rec: rec, WarpGID: i})
		e.IdleCycle(100)
	}
	sm, lane, conf := d.Suspect()
	if !conf {
		t.Fatalf("diagnosis inconclusive after %d events", d.Events())
	}
	if sm != 3 || lane != badLane {
		t.Errorf("diagnosed (SM %d, lane %d), want (3, %d)", sm, lane, badLane)
	}
}

// TestSamplingDMRReducesCoverage: with a 25% duty cycle (the policy
// epoch:25/100), eligible instructions outside the window go
// unverified, and the stall overhead drops accordingly.
func TestSamplingDMRReducesCoverage(t *testing.T) {
	run := func(p arch.Policy) *stats.Stats {
		cfg := arch.WarpedDMRConfig()
		cfg.Policy = p
		cfg.ReplayQSize = 0 // make stalls visible
		st := &stats.Stats{}
		e := engineFor(cfg, st, nil, nil)
		for cyc := int64(0); cyc < 400; cyc++ {
			e.Issue(IssueInfo{Rec: fullRec(isa.OpIADD, isa.Reg(cyc%8)), WarpGID: 1, Cycle: cyc})
		}
		e.Drain(100)
		return st
	}
	always := run(arch.Policy{})
	sampled := run(arch.Policy{Kind: arch.PolicyEpoch, EpochOn: 25, EpochPeriod: 100})
	if sampled.ProtectedTI+sampled.SkippedTI != sampled.EligibleTI {
		t.Errorf("sampled run: protected %d + skipped %d != eligible %d",
			sampled.ProtectedTI, sampled.SkippedTI, sampled.EligibleTI)
	}
	if always.VerifiedInter <= sampled.VerifiedInter {
		t.Errorf("sampling should verify less: %d vs %d",
			sampled.VerifiedInter, always.VerifiedInter)
	}
	if sampled.StallReplayQFull >= always.StallReplayQFull {
		t.Errorf("sampling should stall less: %d vs %d",
			sampled.StallReplayQFull, always.StallReplayQFull)
	}
	// Coverage ratio tracks the duty cycle, within the epoch-boundary slop.
	ratio := float64(sampled.VerifiedInter) / float64(always.VerifiedInter)
	if ratio < 0.15 || ratio > 0.40 {
		t.Errorf("sampled/always verified ratio = %.2f, want ~0.25", ratio)
	}
}
