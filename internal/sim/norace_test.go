//go:build !race

package sim

// raceEnabled reports a -race test binary, whose runtime allocates on
// its own and so defeats allocation counting.
const raceEnabled = false
