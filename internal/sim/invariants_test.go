package sim

import (
	"strings"
	"testing"

	"warped/internal/stats"
)

// TestCheckSMTrips feeds checkSM a consistent tally, then one broken
// copy per invariant: each must fail naming the invariant and the SM.
func TestCheckSMTrips(t *testing.T) {
	good := func() *stats.Stats {
		return &stats.Stats{
			IdleIssueSlots: 40,
			TypeHist:       [3]int64{5, 2, 3},
			UnitOps:        [3]int64{5, 2, 3},
			EligibleTI:     320,
			ProtectedTI:    256,
			SkippedTI:      64,
			VerifiedIntra:  16,
			VerifiedInter:  224,
		}
	}
	const loop, issue, stall = 100, 50, 10
	if err := checkSM(7, loop, issue, stall, good()); err != nil {
		t.Fatalf("consistent tally rejected: %v", err)
	}
	cases := []struct {
		invariant string
		issue     int64
		breakIt   func(*stats.Stats)
	}{
		{"issue+idle+stall == cycles", issue, func(st *stats.Stats) { st.IdleIssueSlots-- }},
		{"issue+idle+stall == cycles", issue + 1, func(*stats.Stats) {}},
		{"sum(TypeHist) == sum(UnitOps)", issue, func(st *stats.Stats) { st.TypeHist[1]++ }},
		{"protected+skipped == eligible", issue, func(st *stats.Stats) { st.SkippedTI-- }},
		{"verified <= protected", issue, func(st *stats.Stats) { st.VerifiedInter += 17 }},
	}
	for _, c := range cases {
		st := good()
		c.breakIt(st)
		err := checkSM(7, loop, c.issue, stall, st)
		if err == nil {
			t.Errorf("%s: broken tally passed", c.invariant)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, c.invariant) || !strings.Contains(msg, "SM 7") {
			t.Errorf("%s: error %q does not name the invariant and SM 7", c.invariant, msg)
		}
	}
}
