//go:build race

package verify_test

// raceEnabled reports a -race test binary, whose runtime allocates on
// its own and so defeats allocation counting.
const raceEnabled = true
