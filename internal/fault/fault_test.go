package fault

import (
	"math/rand"
	"testing"

	"warped/internal/isa"
)

func TestStuckAtSemantics(t *testing.T) {
	inj := NewInjector(&Fault{
		Kind: StuckAt, SM: 0, Lane: 3, Unit: isa.UnitSP, Bit: 4, StuckVal: 1,
	})
	// Matching lane: bit 4 forced to 1.
	v, changed := inj.Perturb(0, 10, 3, isa.UnitSP, 0)
	if v != 1<<4 || !changed {
		t.Errorf("stuck-at-1: got %x changed=%v", v, changed)
	}
	// Value already has the bit: no visible corruption.
	v, changed = inj.Perturb(0, 11, 3, isa.UnitSP, 1<<4)
	if v != 1<<4 || changed {
		t.Error("stuck-at matching value should not count as corruption")
	}
	// Wrong lane, unit, or SM: untouched.
	if _, ch := inj.Perturb(0, 12, 4, isa.UnitSP, 0); ch {
		t.Error("wrong lane perturbed")
	}
	if _, ch := inj.Perturb(0, 13, 3, isa.UnitLDST, 0); ch {
		t.Error("wrong unit perturbed")
	}
	if _, ch := inj.Perturb(5, 14, 3, isa.UnitSP, 0); ch {
		t.Error("wrong SM perturbed")
	}
	if inj.Activations != 1 {
		t.Errorf("activations = %d, want 1", inj.Activations)
	}
}

func TestStuckAtZero(t *testing.T) {
	inj := NewInjector(&Fault{Kind: StuckAt, SM: -1, Lane: 0, Unit: isa.UnitSP, Bit: 0, StuckVal: 0})
	v, changed := inj.Perturb(17, 0, 0, isa.UnitSP, 0xFF)
	if v != 0xFE || !changed {
		t.Errorf("stuck-at-0: got %x", v)
	}
	// SM -1 matches any SM.
	if _, ch := inj.Perturb(29, 0, 0, isa.UnitSP, 1); !ch {
		t.Error("wildcard SM did not match")
	}
}

func TestTransientFiresOnce(t *testing.T) {
	inj := NewInjector(&Fault{Kind: Transient, SM: 0, Lane: 1, Unit: isa.UnitSP, Bit: 2, Cycle: 100})
	// Before its cycle: dormant.
	if _, ch := inj.Perturb(0, 50, 1, isa.UnitSP, 0); ch {
		t.Error("transient fired early")
	}
	// At/after the cycle: exactly one flip.
	v, ch := inj.Perturb(0, 150, 1, isa.UnitSP, 0)
	if !ch || v != 1<<2 {
		t.Errorf("transient did not fire: %x %v", v, ch)
	}
	if _, ch := inj.Perturb(0, 151, 1, isa.UnitSP, 0); ch {
		t.Error("transient fired twice")
	}
	// Reset re-arms it.
	inj.Reset()
	if inj.Activations != 0 {
		t.Error("reset did not clear activations")
	}
	if _, ch := inj.Perturb(0, 200, 1, isa.UnitSP, 0); !ch {
		t.Error("reset transient did not re-fire")
	}
}

func TestRandomFaultGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		f := RandomStuckAt(rng, 30)
		if f.SM < 0 || f.SM >= 30 || f.Lane < 0 || f.Lane >= 32 || f.Bit >= 32 {
			t.Fatalf("bad random stuck-at: %+v", f)
		}
		if f.Unit > isa.UnitLDST {
			t.Fatalf("stuck-at on non-execution unit: %v", f.Unit)
		}
		tr := RandomTransient(rng, 30, 1000)
		if tr.Cycle < 0 || tr.Cycle >= 1000 {
			t.Fatalf("bad transient cycle: %d", tr.Cycle)
		}
	}
}

func TestFaultStrings(t *testing.T) {
	f := &Fault{Kind: StuckAt, SM: 1, Lane: 2, Unit: isa.UnitSP, Bit: 3, StuckVal: 1}
	if s := f.String(); s == "" || f.Kind.String() != "stuck-at" {
		t.Error("fault stringers broken")
	}
	tr := &Fault{Kind: Transient, SM: 1, Lane: 2, Unit: isa.UnitSFU, Bit: 3, Cycle: 99}
	if tr.Kind.String() != "transient" || tr.String() == "" {
		t.Error("transient stringer broken")
	}
}

func TestMultipleFaults(t *testing.T) {
	inj := NewInjector(
		&Fault{Kind: StuckAt, SM: -1, Lane: 0, Unit: isa.UnitSP, Bit: 0, StuckVal: 1},
		&Fault{Kind: StuckAt, SM: -1, Lane: 0, Unit: isa.UnitSP, Bit: 1, StuckVal: 1},
	)
	v, ch := inj.Perturb(0, 0, 0, isa.UnitSP, 0)
	if v != 0b11 || !ch {
		t.Errorf("stacked faults: got %b", v)
	}
}

// TestCanFire: an injector can fire only on the SMs its faults name,
// or everywhere when a fault's SM is -1; a PC-targeted injector is
// not tied to an SM.
func TestCanFire(t *testing.T) {
	inj := NewInjector(
		&Fault{Kind: StuckAt, SM: 2, Lane: 1, Unit: isa.UnitSP},
		&Fault{Kind: Transient, SM: 5, Lane: 1, Unit: isa.UnitSP},
	)
	for sm, want := range map[int]bool{0: false, 2: true, 4: false, 5: true} {
		if got := inj.CanFire(sm); got != want {
			t.Errorf("CanFire(%d) = %v, want %v", sm, got, want)
		}
	}
	if NewInjector().CanFire(0) {
		t.Error("an injector without faults can fire")
	}
	everywhere := NewInjector(&Fault{Kind: StuckAt, SM: -1, Lane: 1, Unit: isa.UnitSP})
	if !everywhere.CanFire(0) || !everywhere.CanFire(29) {
		t.Error("an SM -1 fault must be able to fire on every SM")
	}
	if !NewPCInjector("k", 3, 0).CanFire(7) {
		t.Error("a PC injector must be able to fire on every SM")
	}
}
