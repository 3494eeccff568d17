package kernels

import (
	"context"
	"reflect"
	"testing"

	"warped/internal/arch"
	"warped/internal/isa"
	"warped/internal/sim"
)

// silentHook can fire on every SM but never changes a value, so every
// SM's DMR engine recomputes and compares each replay of a run whose
// values are all fault-free.
type silentHook struct{}

func (silentHook) CanFire(int) bool { return true }

func (silentHook) Perturb(_ int, _ int64, _ int, _ isa.UnitClass, golden uint32) (uint32, bool) {
	return golden, false
}

// TestUnperturbedReplaysMatch pins the premise that lets an SM with no
// fault hook count its DMR replays instead of recomputing them: with
// nothing perturbed, every redundant execution of every opcode the
// bundled kernels use reproduces the original. A run with a silent hook
// on every SM takes the full recompute-and-compare path; its Stats must
// equal the run without a hook, with no detection.
func TestUnperturbedReplaysMatch(t *testing.T) {
	cfg := arch.WarpedDMRConfig()
	for _, b := range append(All(), Extras()...) {
		t.Run(b.Name, func(t *testing.T) {
			bare, _, err := Attempt(context.Background(), cfg, b, sim.LaunchOpts{}, true)
			if err != nil {
				t.Fatal(err)
			}
			hooked, _, err := Attempt(context.Background(), cfg, b, sim.LaunchOpts{Fault: silentHook{}}, true)
			if err != nil {
				t.Fatal(err)
			}
			if hooked.FaultsDetected != 0 {
				t.Errorf("unperturbed replays flagged %d mismatches", hooked.FaultsDetected)
			}
			if !reflect.DeepEqual(hooked, bare) {
				t.Errorf("stats with a silent hook on every SM differ from a run without one:\n--- hooked ---\n%+v\n--- bare ---\n%+v", hooked, bare)
			}
		})
	}
}
