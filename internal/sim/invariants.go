package sim

import (
	"fmt"

	"warped/internal/stats"
)

// checkSM verifies the accounting identities of one SM at the end of a
// successful launch: st is the SM's drained Stats, loopCycles the
// launch loop's cycle count, and issue and stall the cycles the SM
// issued in and spent stalled. A violation is a simulator bug, so the
// launch fails with an error naming the invariant and the SM.
func checkSM(smID int, loopCycles, issue, stall int64, st *stats.Stats) error {
	fail := func(name, detail string, args ...any) error {
		return fmt.Errorf("sim: invariant %q violated on SM %d: "+detail, append([]any{name, smID}, args...)...)
	}
	// Every loop cycle is exactly one of issue, idle or stall, whether
	// the SM was ticked or skipped as quiet.
	if idle := st.IdleIssueSlots; issue+idle+stall != loopCycles {
		return fail("issue+idle+stall == cycles", "%d+%d+%d != %d", issue, idle, stall, loopCycles)
	}
	if th, uo := st.TypeHist[0]+st.TypeHist[1]+st.TypeHist[2], st.UnitOps[0]+st.UnitOps[1]+st.UnitOps[2]; th != uo {
		return fail("sum(TypeHist) == sum(UnitOps)", "%d != %d", th, uo)
	}
	if st.ProtectedTI+st.SkippedTI != st.EligibleTI {
		return fail("protected+skipped == eligible", "%d+%d != %d", st.ProtectedTI, st.SkippedTI, st.EligibleTI)
	}
	if st.VerifiedIntra+st.VerifiedInter > st.ProtectedTI {
		return fail("verified <= protected", "%d+%d > %d", st.VerifiedIntra, st.VerifiedInter, st.ProtectedTI)
	}
	return nil
}
