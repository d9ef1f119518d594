//go:build race

package controller

// raceEnabled mirrors whether the race detector is compiled in; timing gates
// skip their nanosecond bounds under it (it slows every memory access
// several-fold), while allocation gates hold in every build.
const raceEnabled = true
