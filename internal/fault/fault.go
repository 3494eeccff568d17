// Package fault models hardware faults in the execution units —
// per-lane stuck-at defects and transient single-event upsets — and
// implements the simulator's FaultHook so faults corrupt computed
// values (or effective addresses) exactly where the paper assumes
// errors arise. Memory is ECC-protected and never faults.
//
// The paper evaluates coverage analytically; this package is the
// repository's extension that lets coverage be validated empirically:
// inject a fault, run a workload, and ask whether a Warped-DMR
// comparator flagged it.
package fault

import (
	"fmt"
	"math/rand"

	"warped/internal/isa"
)

// Kind distinguishes fault models.
type Kind int

const (
	// StuckAt permanently forces one output bit of one physical lane.
	StuckAt Kind = iota
	// Transient flips one output bit of one physical lane exactly once,
	// at the first matching execution at or after Cycle.
	Transient
)

func (k Kind) String() string {
	switch k {
	case StuckAt:
		return "stuck-at"
	case Transient:
		return "transient"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one injected hardware defect.
type Fault struct {
	Kind Kind
	SM   int // SM index; -1 matches any SM
	Lane int // physical SIMT lane 0..31
	Unit isa.UnitClass
	Bit  uint // affected output bit 0..31

	// StuckAt only: the value the bit is stuck at (0 or 1).
	StuckVal uint

	// Transient only: earliest cycle at which the upset fires.
	Cycle int64

	fired bool
}

func (f *Fault) String() string {
	if f.Kind == StuckAt {
		return fmt.Sprintf("stuck-at-%d sm=%d lane=%d unit=%s bit=%d",
			f.StuckVal, f.SM, f.Lane, f.Unit, f.Bit)
	}
	return fmt.Sprintf("transient sm=%d lane=%d unit=%s bit=%d cycle>=%d",
		f.SM, f.Lane, f.Unit, f.Bit, f.Cycle)
}

// Injector applies a set of faults; it implements sim.FaultHook.
type Injector struct {
	Faults      []*Fault
	Activations int64 // corruptions actually produced

	// FirstActivation is the cycle of the first corruption (-1 before
	// any), for detection-latency measurements.
	FirstActivation int64
}

// NewInjector wraps the given faults.
func NewInjector(faults ...*Fault) *Injector {
	return &Injector{Faults: faults, FirstActivation: -1}
}

// Perturb applies matching faults to a golden value, reporting whether
// the value changed. Called for every primary and redundant execution.
func (inj *Injector) Perturb(smID int, cycle int64, physLane int, unit isa.UnitClass, golden uint32) (uint32, bool) {
	v := golden
	for _, f := range inj.Faults {
		if f.SM >= 0 && f.SM != smID {
			continue
		}
		if f.Lane != physLane || f.Unit != unit {
			continue
		}
		switch f.Kind {
		case StuckAt:
			if f.StuckVal == 0 {
				v &^= 1 << f.Bit
			} else {
				v |= 1 << f.Bit
			}
		case Transient:
			if !f.fired && cycle >= f.Cycle {
				f.fired = true
				v ^= 1 << f.Bit
			}
		}
	}
	if v != golden {
		if inj.Activations == 0 {
			inj.FirstActivation = cycle
		}
		inj.Activations++
		return v, true
	}
	return golden, false
}

// CanFire implements sim.FaultHook: a fault can only fire on its own
// SM, or on every SM when its SM is -1.
func (inj *Injector) CanFire(smID int) bool {
	for _, f := range inj.Faults {
		if f.SM < 0 || f.SM == smID {
			return true
		}
	}
	return false
}

// Reset re-arms transient faults and clears activation counts so the
// injector can be reused across runs.
func (inj *Injector) Reset() {
	inj.Activations = 0
	inj.FirstActivation = -1
	for _, f := range inj.Faults {
		f.fired = false
	}
}

// RandomStuckAt draws a random stuck-at fault on an SP or SFU or LD/ST
// unit of a random SM/lane/bit.
func RandomStuckAt(rng *rand.Rand, numSMs int) *Fault {
	return &Fault{
		Kind:     StuckAt,
		SM:       rng.Intn(numSMs),
		Lane:     rng.Intn(32),
		Unit:     isa.UnitClass(rng.Intn(3)),
		Bit:      uint(rng.Intn(32)),
		StuckVal: uint(rng.Intn(2)),
	}
}

// RandomTransient draws a random one-shot upset that fires somewhere in
// the first maxCycle cycles.
func RandomTransient(rng *rand.Rand, numSMs int, maxCycle int64) *Fault {
	if maxCycle < 1 {
		maxCycle = 1
	}
	return &Fault{
		Kind:  Transient,
		SM:    rng.Intn(numSMs),
		Lane:  rng.Intn(32),
		Unit:  isa.UnitClass(rng.Intn(3)),
		Bit:   uint(rng.Intn(32)),
		Cycle: rng.Int63n(maxCycle),
	}
}
