package fault

import (
	"fmt"

	"warped/internal/isa"
)

// PCInjector flips one output bit at every dynamic execution of one
// static instruction — fault injection addressed by (kernel, PC)
// instead of by hardware location. It exists to cross-validate static
// vulnerability analysis: if verify.AnalyzeVuln classifies a PC as
// unACE, corrupting that PC's result on every execution must leave the
// workload's architectural output (and its figure-visible statistics)
// untouched.
//
// It implements sim.PCFaultHook. The plain Perturb method — the one the
// DMR engine's redundant-execution path calls — is inert: a PC-targeted
// fault corrupts the architectural stream only, so these campaigns run
// with DMR off and measure masking, not detection.
type PCInjector struct {
	Kernel string // kernel name to match; "" matches every kernel
	PC     int    // static instruction index to corrupt
	Lane   int    // physical lane to corrupt; -1 corrupts every lane
	Bit    uint   // output bit to flip, 0..31

	Activations int64 // corruptions actually produced
}

// NewPCInjector targets every lane of one static instruction.
func NewPCInjector(kernel string, pc int, bit uint) *PCInjector {
	return &PCInjector{Kernel: kernel, PC: pc, Lane: -1, Bit: bit}
}

func (inj *PCInjector) String() string {
	return fmt.Sprintf("pc-fault kernel=%s pc=%d lane=%d bit=%d",
		inj.Kernel, inj.PC, inj.Lane, inj.Bit)
}

// PerturbAt implements the PC-targeted half of sim.PCFaultHook.
func (inj *PCInjector) PerturbAt(_ int, _ int64, kernel string, pc, physLane int, _ isa.UnitClass, golden uint32) (uint32, bool) {
	if pc != inj.PC || (inj.Kernel != "" && kernel != inj.Kernel) {
		return golden, false
	}
	if inj.Lane >= 0 && physLane != inj.Lane {
		return golden, false
	}
	inj.Activations++
	return golden ^ 1<<inj.Bit, true
}

// Perturb implements sim.FaultHook and never fires: the redundant
// execution path has no PC identity to match against, so the golden
// value passes through untouched.
func (inj *PCInjector) Perturb(_ int, _ int64, _ int, _ isa.UnitClass, golden uint32) (uint32, bool) {
	return golden, false
}

// CanFire implements sim.FaultHook: a PC is not tied to a hardware
// location, so the fault can fire on every SM.
func (inj *PCInjector) CanFire(int) bool { return true }

// Reset clears the activation count so the injector can be reused.
func (inj *PCInjector) Reset() { inj.Activations = 0 }
