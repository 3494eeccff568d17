//go:build race

package kernels

// raceEnabled reports a -race test binary, under which the schedule
// check's 99 simulations run several times slower.
const raceEnabled = true
